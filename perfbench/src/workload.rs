//! The benchmark's workloads, each a pure function of its seed.

use wilis::fxp::rng::mix_seed;
use wilis::phy::PhyRate;
use wilis::{Scenario, SweepGrid};

/// Which traffic a run drives through the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A PHY-only Figure-5-shaped grid, run cold: decode-dominated, and
    /// its points share channel coordinates, so the fused batch path
    /// carries it.
    PhyGrid,
    /// Fading-channel ARQ and HARQ links plus 4-node ALOHA and CSMA
    /// cells, run cold: channel draws, the attempt loop and the cell
    /// engine dominate.
    LinkFading,
    /// Re-requests of a stored figure-sized grid from a disk-backed
    /// store, plus a few new points per call: store, key, clone and
    /// runner fixed costs dominate.
    ServiceRevisit,
}

impl Kind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 3] = [Kind::PhyGrid, Kind::LinkFading, Kind::ServiceRevisit];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::PhyGrid => "phy_grid",
            Kind::LinkFading => "link_fading",
            Kind::ServiceRevisit => "service_revisit",
        }
    }

    /// The workload named `name`, if any.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Packets per point of the cold PHY grid.
const PHY_PACKETS: u32 = 24;
/// Payload of every cold-workload packet: the paper's 1704-bit frame.
const PAYLOAD_BITS: usize = 1704;
/// Every this many calls, the new point of a `service_revisit` call is a
/// deep one (6 BCJR packets of 1704 bits at the Figure 6 operating point)
/// instead of a cheap one. These calls are 1 in 20, so p99 falls among
/// calls that simulate real work rather than at the edge of scheduler
/// hiccups.
const DEEP_EVERY: u64 = 20;
/// Calls of one `service_revisit` store epoch. Each epoch starts
/// from the pre-populated store, so the store, its file and the
/// process's memory stay the same size however many calls a run makes;
/// call `k` of every epoch adds the same new point.
pub const EPOCH_CALLS: u64 = 12 * DEEP_EVERY;
/// Seed-stream tags, so the grids of one workload never share seeds.
const GRID_STREAM: u64 = 0;
const CELL_STREAM: u64 = 1;
const FRESH_STREAM: u64 = 2;

/// One workload instance: what each timed call requests.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Which workload this is.
    pub kind: Kind,
    /// The workload seed every scenario seed derives from.
    pub seed: u64,
    /// The grid each call requests (on `service_revisit`, the stored
    /// grid every call re-requests).
    pub grid: Vec<Scenario>,
}

impl Workload {
    /// Builds workload `kind` from `seed`; the same pair always gives the
    /// same scenarios.
    pub fn new(kind: Kind, seed: u64) -> Self {
        let grid_seed = mix_seed(seed, GRID_STREAM);
        let grid = match kind {
            Kind::PhyGrid => SweepGrid::new()
                .rates(&[
                    PhyRate::QpskHalf,
                    PhyRate::Qam16Half,
                    PhyRate::Qam64ThreeQuarters,
                ])
                .decoders(&["viterbi", "sova", "bcjr"])
                .snrs_db(&[6.0, 10.0, 14.0, 18.0])
                .seeds(&[grid_seed])
                .packets(PHY_PACKETS)
                .payload_bits(PAYLOAD_BITS)
                .scenarios(),
            Kind::LinkFading => {
                // Two replicas of every point: HARQ attempts and cell
                // contention are random, and more, smaller jobs keep the
                // work per call (and its split over the two workers)
                // close to the same from seed to seed.
                let link_seeds = [0, 1].map(|r| mix_seed(grid_seed, r));
                let cell_seeds = [0, 1].map(|r| mix_seed(mix_seed(seed, CELL_STREAM), r));
                let mut points = SweepGrid::new()
                    .rates(&[PhyRate::BpskHalf, PhyRate::QpskHalf])
                    .decoders(&["sova"])
                    .channels(&["fading"])
                    .links(&["arq", "harq-cc"])
                    .snrs_db(&[8.0, 14.0])
                    .seeds(&link_seeds)
                    .packets(16)
                    .payload_bits(PAYLOAD_BITS)
                    .scenarios();
                points.extend(
                    SweepGrid::new()
                        .rates(&[PhyRate::QpskHalf])
                        .decoders(&["sova"])
                        .channels(&["fading"])
                        .contentions(&["aloha", "csma"])
                        .nodes(4)
                        .snrs_db(&[14.0])
                        .seeds(&cell_seeds)
                        .packets(48)
                        .payload_bits(PAYLOAD_BITS)
                        .scenarios(),
                );
                points
            }
            Kind::ServiceRevisit => {
                let snrs: Vec<f64> = (1..=10).map(|i| 2.0 * f64::from(i)).collect();
                revisit_grid(grid_seed, &snrs)
                    .rates(&PhyRate::all())
                    .scenarios()
            }
        };
        Self { kind, seed, grid }
    }

    /// Calls after which the call sequence's mix of work repeats: every
    /// 20 consecutive `service_revisit` calls hold one deep call.
    pub fn cycle(&self) -> usize {
        match self.kind {
            Kind::ServiceRevisit => DEEP_EVERY as usize,
            _ => 1,
        }
    }

    /// The point call `call` of a `service_revisit` store epoch adds
    /// beyond the stored grid: a coordinate the stored grid lacks, so it
    /// is a miss that appends to the store. One point makes one worker
    /// job, which the host can place on whichever core is free.
    pub fn fresh_point(&self, call: u64) -> Scenario {
        let seed = mix_seed(mix_seed(self.seed, FRESH_STREAM), call);
        let grid = if call % DEEP_EVERY == DEEP_EVERY - 1 {
            SweepGrid::new()
                .seeds(&[seed])
                .packets(6)
                .payload_bits(PAYLOAD_BITS)
        } else {
            revisit_grid(seed, &[8.0])
                .rates(&[PhyRate::QpskHalf])
                .decoders(&["viterbi"])
        };
        grid.scenarios().swap_remove(0)
    }
}

/// The cheap points of the stored figure grid: 2 packets of 400 bits.
fn revisit_grid(seed: u64, snrs: &[f64]) -> SweepGrid {
    SweepGrid::new()
        .decoders(&["viterbi", "sova", "bcjr"])
        .snrs_db(snrs)
        .seeds(&[seed])
        .packets(2)
        .payload_bits(400)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_pure_functions_of_the_seed() {
        for kind in Kind::ALL {
            let a = Workload::new(kind, 11);
            assert_eq!(a, Workload::new(kind, 11), "{}", kind.name());
            assert_ne!(a.grid, Workload::new(kind, 12).grid, "{}", kind.name());
            assert_eq!(a.fresh_point(3), Workload::new(kind, 11).fresh_point(3));
        }
    }

    #[test]
    fn seeds_change_coordinates_not_shape() {
        for kind in Kind::ALL {
            let (a, b) = (Workload::new(kind, 1), Workload::new(kind, 2));
            assert_eq!(a.grid.len(), b.grid.len());
            for (x, y) in a.grid.iter().zip(&b.grid) {
                assert_eq!(
                    (x.rate, &x.decoder, x.packets),
                    (y.rate, &y.decoder, y.packets)
                );
            }
        }
    }

    #[test]
    fn grid_sizes() {
        assert_eq!(Workload::new(Kind::PhyGrid, 0).grid.len(), 36);
        let link = Workload::new(Kind::LinkFading, 0);
        assert_eq!(link.grid.len(), 20);
        assert_eq!(
            link.grid.iter().filter(|sc| sc.contention == "p2p").count(),
            16
        );
        assert_eq!(Workload::new(Kind::ServiceRevisit, 0).grid.len(), 240);
    }

    #[test]
    fn fresh_points_are_new_on_every_call() {
        let w = Workload::new(Kind::ServiceRevisit, 5);
        let mut seeds: Vec<u64> = (0..50).map(|c| w.fresh_point(c).seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 50);
        assert!(w.grid.iter().all(|sc| !seeds.contains(&sc.seed)));
    }

    #[test]
    fn names_round_trip() {
        for kind in Kind::ALL {
            assert_eq!(Kind::parse(kind.name()), Some(kind));
        }
        assert_eq!(Kind::parse("nope"), None);
    }
}
