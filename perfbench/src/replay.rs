//! Packet-by-packet replay of point-to-point grid points through the
//! layers' public functions, with a span around every layer call.
//!
//! The replay follows the engine's seed schedule (`mix_seed` per packet
//! and attempt, `SmallRng` payloads), so it reproduces the runner's
//! statistics exactly; [`Counts`] is compared against the runner's
//! result for every replayed point.

use std::time::Instant;

use wilis::fec::Llr;
use wilis::fxp::rng::{mix_seed, SmallRng};
use wilis::fxp::Cplx;
use wilis::lis::registry::{Params, RegistryError};
use wilis::mac::link::{LinkContext, LinkStatus, Oracle};
use wilis::mac::LinkMetrics;
use wilis::phy::{PhyRate, PhyScratch, Receiver, RxResult, Transmitter};
use wilis::scenario::{channel_registry, link_registry, ChannelSlot, LinkSlot};
use wilis::softphy::{BerEstimator, DecoderKind, ScalingFactors};
use wilis::{Scenario, ScenarioResult, SystemConfig, WilisSystem};

use crate::trace::Tracer;

/// The engine's seed-stream tag for HARQ retransmissions: attempt `a > 0`
/// of packet seed `s` draws its channel from
/// `mix_seed(mix_seed(s, HARQ_ATTEMPT_STREAM | a), 1)`.
const HARQ_ATTEMPT_STREAM: u64 = 0x4A59_0000_0000_0000;

/// The statistics of one replayed point that the runner also reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    /// Packets received (HARQ attempts count one each, as in the engine).
    pub packets: u64,
    /// Packets with at least one payload bit error.
    pub packet_errors: u64,
    /// Payload bit errors.
    pub bit_errors: u64,
    /// Sum of the SoftPHY per-packet BER estimates.
    pub predicted_pber_sum: f64,
    /// The link policy's counters, when the point has one.
    pub link: Option<LinkMetrics>,
}

impl Counts {
    /// The runner's figures for the same point.
    pub fn of(r: &ScenarioResult) -> Self {
        Self {
            packets: r.packets,
            packet_errors: r.packet_errors,
            bit_errors: r.bit_errors,
            predicted_pber_sum: r.predicted_pber_sum,
            link: r.link,
        }
    }
}

/// The span name of a decode call, which carries the decoder.
fn decode_span(decoder: &str) -> &'static str {
    match decoder {
        "viterbi" => "decode.viterbi",
        "sova" => "decode.sova",
        "bcjr" => "decode.bcjr",
        _ => "decode.other",
    }
}

/// A receiver, mother-code LLR planes for it, and each plane's scramble
/// seed.
pub type DecoderInput = (Receiver, Vec<Vec<Llr>>, Vec<u8>);

/// The registries a replay builds its layers from — the same stock
/// registries the runner's workers use.
pub struct Replayer {
    system: WilisSystem,
    channels: ChannelSlot,
    links: LinkSlot,
}

impl Replayer {
    /// A replayer over the stock registries.
    pub fn new() -> Self {
        Self {
            system: WilisSystem::new(),
            channels: channel_registry(),
            links: link_registry(),
        }
    }

    /// The receiver and SoftPHY estimator the engine builds for `rate` and
    /// `decoder`: the hint-path demapper width, and an analytic estimator
    /// for decoders that export hints.
    fn receiver(
        &self,
        rate: PhyRate,
        decoder: &str,
    ) -> Result<(Receiver, Option<BerEstimator>), RegistryError> {
        let mut config = SystemConfig::new(rate, decoder);
        config.demapper_bits = ScalingFactors::hint_demapper_bits(rate.modulation());
        let estimator = DecoderKind::from_registry_name(decoder)
            .map(|k| BerEstimator::analytic_for_rate(rate, k));
        Ok((self.system.receiver(&config)?, estimator))
    }

    /// Replays every packet (every attempt, for HARQ links) of `sc`,
    /// recording a `point` span, a `packet` span per received packet and
    /// a span per layer call inside it.
    ///
    /// # Errors
    ///
    /// A registry error when `sc` names something the stock registries
    /// lack.
    pub fn replay(&self, sc: &Scenario, tr: &mut Tracer) -> Result<Counts, RegistryError> {
        let (mut rx, estimator) = self.receiver(sc.rate, &sc.decoder)?;
        let mut channel_params = sc.channel_params.clone();
        channel_params.set("snr_db", &format!("{}", sc.snr_db));
        let mut channel = self.channels.build(&sc.channel, &channel_params)?;
        let mut policy = match sc.link.as_str() {
            "none" => None,
            name => Some(self.links.build(name, &link_params(sc))?),
        };
        let decode = decode_span(&sc.decoder);
        let mut scratch = PhyScratch::new();
        let mut samples: Vec<Cplx> = Vec::new();
        let mut payload: Vec<u8> = Vec::new();
        let mut mother: Vec<Llr> = Vec::new();
        let mut got = RxResult::default();
        let mut counts = Counts::default();

        let point = tr.enter("point");
        for p in 0..sc.packets {
            let (packet_seed, scramble_seed) = draw_packet(sc, p, &mut payload);
            loop {
                let packet = tr.enter("packet");
                let harq = policy.as_mut().and_then(|pol| pol.harq());
                let (phase, chan_seed) = match &harq {
                    Some(core) => (
                        core.tx_phase(),
                        mix_seed(attempt_seed(packet_seed, core.attempt()), 1),
                    ),
                    None => (0, mix_seed(packet_seed, 1)),
                };

                let s = tr.enter("tx");
                Transmitter::with_phase(sc.rate, phase).tx_into(
                    &payload,
                    scramble_seed,
                    &mut scratch,
                    &mut samples,
                );
                tr.exit(s);
                let s = tr.enter("channel");
                channel.apply(&mut samples, chan_seed);
                tr.exit(s);
                let s = tr.enter("rx_front");
                if harq.is_some() {
                    rx.set_puncture_phase(phase);
                }
                rx.rx_front_end_into(&samples, payload.len(), &mut scratch, &mut mother);
                tr.exit(s);
                let is_harq = harq.is_some();
                match harq {
                    Some(core) => {
                        let s = tr.enter("link");
                        core.absorb(&mother);
                        tr.exit(s);
                        let s = tr.enter(decode);
                        let plane = core.plane();
                        rx.rx_decode_from(
                            plane,
                            payload.len(),
                            scramble_seed,
                            &mut scratch,
                            &mut got,
                        );
                        tr.exit(s);
                    }
                    None => {
                        let s = tr.enter(decode);
                        rx.rx_decode_from(
                            &mother,
                            payload.len(),
                            scramble_seed,
                            &mut scratch,
                            &mut got,
                        );
                        tr.exit(s);
                    }
                }

                let errs = payload
                    .iter()
                    .zip(&got.payload)
                    .filter(|(a, b)| a != b)
                    .count() as u64;
                counts.packets += 1;
                counts.bit_errors += errs;
                counts.packet_errors += u64::from(errs > 0);
                let predicted = match &estimator {
                    Some(est) => {
                        let s = tr.enter("softphy");
                        let v = est.per_packet(&got.hints);
                        tr.exit(s);
                        v
                    }
                    None => 0.0,
                };
                counts.predicted_pber_sum += predicted;
                let status = match policy.as_mut() {
                    Some(pol) => {
                        let ctx = LinkContext {
                            sent: &payload,
                            bit_errors: errs,
                            predicted_pber: predicted,
                            rate: sc.rate,
                            oracle: Oracle::Unavailable,
                        };
                        let s = tr.enter("link");
                        let verdict = pol.observe(&got, &got.hints, &ctx);
                        tr.exit(s);
                        verdict.status
                    }
                    None => LinkStatus::Delivered,
                };
                tr.exit(packet);
                if !is_harq || status != LinkStatus::Retransmit {
                    break;
                }
            }
        }
        tr.exit(point);
        counts.link = policy.map(|pol| pol.metrics());
        Ok(counts)
    }

    /// The receiver for `sc` and the mother-code LLR planes of its first
    /// `n` packets (first attempts), with their scramble seeds — decoder
    /// input for timing decode paths side by side.
    ///
    /// # Errors
    ///
    /// As [`Replayer::replay`].
    pub fn planes(&self, sc: &Scenario, n: u32) -> Result<DecoderInput, RegistryError> {
        let (mut rx, _) = self.receiver(sc.rate, &sc.decoder)?;
        let mut channel_params = sc.channel_params.clone();
        channel_params.set("snr_db", &format!("{}", sc.snr_db));
        let mut channel = self.channels.build(&sc.channel, &channel_params)?;
        let mut scratch = PhyScratch::new();
        let mut samples = Vec::new();
        let (mut planes, mut scrambles, mut payload) = (Vec::new(), Vec::new(), Vec::new());
        for p in 0..n {
            let (packet_seed, scramble_seed) = draw_packet(sc, p, &mut payload);
            Transmitter::new(sc.rate).tx_into(&payload, scramble_seed, &mut scratch, &mut samples);
            channel.apply(&mut samples, mix_seed(packet_seed, 1));
            let mut mother = Vec::new();
            rx.rx_front_end_into(&samples, payload.len(), &mut scratch, &mut mother);
            planes.push(mother);
            scrambles.push(scramble_seed);
        }
        Ok((rx, planes, scrambles))
    }
}

/// Host time of decoding one set of planes three ways on one receiver.
#[derive(Debug, Clone, Copy)]
pub struct DecodePaths {
    /// One scalar `rx_decode_from` per plane.
    pub scalar_ns: f64,
    /// One `rx_batch_decode_from` over all planes as lanes.
    pub batch_ns: f64,
    /// One single-lane `rx_batch_decode_from` per plane.
    pub batch1_ns: f64,
}

/// Times the three decode paths over `planes` (at most
/// `wilis::fec::MAX_BATCH_LANES` of them), `reps` times each, and
/// returns the median of each. `Err` names the first plane on which the
/// paths disagree.
pub fn time_decode_paths(
    rx: &mut Receiver,
    planes: &[Vec<Llr>],
    scrambles: &[u8],
    payload_bits: usize,
    reps: usize,
) -> Result<DecodePaths, String> {
    let lanes = planes.len();
    let plane_len = planes[0].len();
    let mut interleaved = vec![Llr::default(); plane_len * lanes];
    for (l, plane) in planes.iter().enumerate() {
        for (i, &v) in plane.iter().enumerate() {
            interleaved[i * lanes + l] = v;
        }
    }
    let mut scratch = PhyScratch::new();
    let mut scalar: Vec<RxResult> = vec![RxResult::default(); lanes];
    let mut batch: Vec<RxResult> = vec![RxResult::default(); lanes];
    let mut batch1: Vec<RxResult> = vec![RxResult::default(); lanes];
    let (mut t_scalar, mut t_batch, mut t_batch1) = (Vec::new(), Vec::new(), Vec::new());
    // One untimed round first, so every path's buffers are sized.
    for rep in 0..=reps {
        let t = Instant::now();
        for (l, plane) in planes.iter().enumerate() {
            rx.rx_decode_from(
                plane,
                payload_bits,
                scrambles[l],
                &mut scratch,
                &mut scalar[l],
            );
        }
        let scalar_ns = t.elapsed().as_nanos() as f64;
        let t = Instant::now();
        rx.rx_batch_decode_from(
            &interleaved,
            lanes,
            payload_bits,
            scrambles,
            &mut scratch,
            &mut batch,
        );
        let batch_ns = t.elapsed().as_nanos() as f64;
        let t = Instant::now();
        for (l, plane) in planes.iter().enumerate() {
            rx.rx_batch_decode_from(
                plane,
                1,
                payload_bits,
                &scrambles[l..=l],
                &mut scratch,
                &mut batch1[l..=l],
            );
        }
        let batch1_ns = t.elapsed().as_nanos() as f64;
        if rep > 0 {
            t_scalar.push(scalar_ns);
            t_batch.push(batch_ns);
            t_batch1.push(batch1_ns);
        }
    }
    for l in 0..lanes {
        let same = |a: &RxResult, b: &RxResult| {
            a.payload == b.payload && a.hints == b.hints && a.soft_magnitudes == b.soft_magnitudes
        };
        if !same(&scalar[l], &batch[l]) || !same(&scalar[l], &batch1[l]) {
            return Err(format!("lane {l}: batch decode differs from scalar decode"));
        }
    }
    let med = |v: &[f64]| crate::stats::median(v).unwrap_or(0.0);
    Ok(DecodePaths {
        scalar_ns: med(&t_scalar),
        batch_ns: med(&t_batch),
        batch1_ns: med(&t_batch1),
    })
}

/// The engine's run-time link parameters: the grid's own plus the
/// payload size and initial rate of the scenario.
fn link_params(sc: &Scenario) -> Params {
    let mut params = sc.link_params.clone();
    params.set("payload_bits", &format!("{}", sc.payload_bits.max(1)));
    params.set("initial_rate_mbps", &format!("{}", sc.rate.mbps()));
    params
}

/// Packet `p` of `sc` as the engine draws it: fills `payload` and returns
/// the packet's seed and scramble seed.
fn draw_packet(sc: &Scenario, p: u32, payload: &mut Vec<u8>) -> (u64, u8) {
    let packet_seed = mix_seed(sc.seed, u64::from(p));
    let mut rng = SmallRng::seed_from_u64(packet_seed);
    payload.clear();
    payload.extend((0..sc.payload_bits).map(|_| rng.gen_bit()));
    (packet_seed, (p % 127 + 1) as u8)
}

/// The seed HARQ attempt `attempt` of a packet draws from.
fn attempt_seed(packet_seed: u64, attempt: u32) -> u64 {
    if attempt == 0 {
        packet_seed
    } else {
        mix_seed(packet_seed, HARQ_ATTEMPT_STREAM | u64::from(attempt))
    }
}
