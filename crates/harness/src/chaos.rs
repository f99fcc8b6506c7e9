//! Deterministic fault-injection planning.
//!
//! A [`FaultPlan`] decides — purely from `(seed, site, cycle, key)` —
//! whether a fault fires at a given injection point. There is no shared
//! RNG stream: every decision is a stateless SplitMix64-style hash
//! compared against a rate threshold, so the same plan produces the same
//! faults regardless of call order, thread count, or how many *other*
//! sites consulted the plan in between. That property is what lets an
//! armed chaos run stay bit-reproducible across 1/2/8-thread grids.
//!
//! `CMPSIM_CHAOS=<seed>:<rate>` (e.g. `CMPSIM_CHAOS=7:0.002`) arms a
//! plan process-wide through [`crate::knobs()`], which parses it with
//! [`FaultPlan::parse`]; unset or empty leaves chaos disarmed. Tests
//! bypass the environment entirely and hand a plan to the consumer
//! directly (the simulator exposes `System::set_chaos` for exactly
//! this, mirroring `set_tracing`).

/// Where in the modeled hierarchy a fault is injected. The discriminant
/// feeds the decision hash, so each site draws an independent fault
/// stream from the same seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FaultSite {
    /// Bit-flip surfacing when a compressed L2 line is decompressed.
    CodecLine = 1,
    /// A request message lost on the off-chip link.
    LinkRequest = 2,
    /// A data-response message corrupted on the off-chip link.
    LinkData = 3,
    /// A memory-controller stall burst delaying one response.
    MemStall = 4,
    /// A directory probe message lost on-chip (retried by the L2).
    DirMessage = 5,
}

impl FaultSite {
    /// Every site, in discriminant order (for reporting tables).
    pub const ALL: [FaultSite; 5] = [
        FaultSite::CodecLine,
        FaultSite::LinkRequest,
        FaultSite::LinkData,
        FaultSite::MemStall,
        FaultSite::DirMessage,
    ];

    /// Short human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            FaultSite::CodecLine => "codec-line",
            FaultSite::LinkRequest => "link-request",
            FaultSite::LinkData => "link-data",
            FaultSite::MemStall => "mem-stall",
            FaultSite::DirMessage => "dir-message",
        }
    }
}

/// A seeded, stateless fault schedule.
///
/// `should_inject` is a pure function of the plan and its arguments;
/// cloning or copying a plan cannot fork or desynchronize anything.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    rate: f64,
    /// `rate` mapped onto a u32 threshold: a decision hash's top 32 bits
    /// below this fire a fault.
    threshold: u32,
}

impl FaultPlan {
    /// A plan firing each decision independently with probability `rate`
    /// (clamped to `[0, 1]`; NaN disables).
    pub fn new(seed: u64, rate: f64) -> FaultPlan {
        let rate = if rate.is_nan() { 0.0 } else { rate.clamp(0.0, 1.0) };
        let threshold = (rate * f64::from(u32::MAX)).round() as u32;
        FaultPlan { seed, rate, threshold }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The per-decision fault probability.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Parses the `CMPSIM_CHAOS` value format `<seed>:<rate>`.
    ///
    /// # Errors
    ///
    /// Returns a description of what is malformed (bad shape, unparsable
    /// seed, or a rate outside `[0, 1]`).
    pub fn parse(s: &str) -> Result<FaultPlan, String> {
        let (seed, rate) = s
            .split_once(':')
            .ok_or_else(|| format!("expected <seed>:<rate>, got {s:?}"))?;
        let seed: u64 = seed
            .trim()
            .parse()
            .map_err(|e| format!("bad seed {seed:?}: {e}"))?;
        let rate: f64 = rate
            .trim()
            .parse()
            .map_err(|e| format!("bad rate {rate:?}: {e}"))?;
        if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
            return Err(format!("rate {rate} outside [0, 1]"));
        }
        Ok(FaultPlan::new(seed, rate))
    }

    /// The decision hash: a SplitMix64-style finalizer over
    /// `(seed, site, cycle, key)`. Pure and order-independent.
    fn mix(&self, site: FaultSite, cycle: u64, key: u64) -> u64 {
        let mut z = self
            .seed
            .wrapping_add((site as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(cycle.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(key.wrapping_mul(0x94D0_49BB_1331_11EB));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Whether a fault fires at `site` for event `(cycle, key)`.
    ///
    /// `key` disambiguates same-cycle decisions at one site (an address,
    /// an attempt counter folded into an address, ...).
    pub fn should_inject(&self, site: FaultSite, cycle: u64, key: u64) -> bool {
        self.threshold > 0 && ((self.mix(site, cycle, key) >> 32) as u32) < self.threshold
    }

    /// Secondary entropy for a fault that already fired (a stall length,
    /// a bit index): uniform over `u64`, independent of the
    /// `should_inject` decision bits.
    pub fn roll(&self, site: FaultSite, cycle: u64, key: u64) -> u64 {
        self.mix(site, cycle, key ^ 0xD6E8_FEB8_6659_FD93)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_and_order_independent() {
        let p = FaultPlan::new(42, 0.01);
        let a: Vec<bool> = (0..1000)
            .map(|c| p.should_inject(FaultSite::CodecLine, c, c * 64))
            .collect();
        // Interleave other-site queries: must not perturb anything.
        let b: Vec<bool> = (0..1000)
            .map(|c| {
                let _ = p.should_inject(FaultSite::MemStall, c, 7);
                let _ = p.roll(FaultSite::LinkData, c, 9);
                p.should_inject(FaultSite::CodecLine, c, c * 64)
            })
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn sites_draw_independent_streams() {
        let p = FaultPlan::new(3, 0.5);
        let per_site: Vec<Vec<bool>> = FaultSite::ALL
            .iter()
            .map(|&s| (0..256).map(|c| p.should_inject(s, c, 0)).collect())
            .collect();
        // With rate 0.5 over 256 draws, two identical site streams would
        // mean the site discriminant is ignored.
        for i in 0..per_site.len() {
            for j in i + 1..per_site.len() {
                assert_ne!(per_site[i], per_site[j], "sites {i} and {j} collide");
            }
        }
    }

    #[test]
    fn rate_extremes() {
        let never = FaultPlan::new(1, 0.0);
        let always = FaultPlan::new(1, 1.0);
        for c in 0..512 {
            assert!(!never.should_inject(FaultSite::LinkRequest, c, c));
            assert!(always.should_inject(FaultSite::LinkRequest, c, c));
        }
    }

    #[test]
    fn observed_rate_tracks_requested_rate() {
        let p = FaultPlan::new(9, 0.05);
        let n = 20_000u64;
        let hits = (0..n)
            .filter(|&c| p.should_inject(FaultSite::MemStall, c, c.wrapping_mul(31)))
            .count();
        let observed = hits as f64 / n as f64;
        assert!(
            (observed - 0.05).abs() < 0.01,
            "observed rate {observed} far from requested 0.05"
        );
    }

    #[test]
    fn parse_accepts_well_formed() {
        let p = FaultPlan::parse("7:0.002").unwrap();
        assert_eq!(p.seed(), 7);
        assert!((p.rate() - 0.002).abs() < 1e-12);
        assert_eq!(FaultPlan::parse(" 11 : 1.0 ").unwrap().seed(), 11);
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["", "7", "7:", ":0.5", "x:0.5", "7:y", "7:1.5", "7:-0.1", "7:NaN", "7:inf"] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::new(1, 0.1);
        let b = FaultPlan::new(2, 0.1);
        let fa: Vec<bool> =
            (0..512).map(|c| a.should_inject(FaultSite::CodecLine, c, 0)).collect();
        let fb: Vec<bool> =
            (0..512).map(|c| b.should_inject(FaultSite::CodecLine, c, 0)).collect();
        assert_ne!(fa, fb);
    }
}
