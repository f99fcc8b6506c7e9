//! Serializing bandwidth channel with FIFO queueing.

use crate::message::Message;

/// Available pin bandwidth for the off-chip link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkBandwidth {
    /// Finite bandwidth in GB/s (the paper sweeps 10–80, default 20).
    GBps(u32),
    /// Unlimited bandwidth: transfers serialize in zero time. Used to
    /// measure *pin bandwidth demand* (EQ 1), "defined as the bandwidth
    /// utilization on a system with infinite available pin bandwidth".
    Infinite,
}

/// The scheduled occupancy of one message on the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// Cycle the first flit leaves (after queueing behind earlier traffic).
    pub start: u64,
    /// Cycle the last flit arrives; the payload is usable from here.
    pub done: u64,
}

impl Transfer {
    /// Cycles spent waiting behind earlier messages.
    pub fn queue_delay(&self, requested_at: u64) -> u64 {
        self.start.saturating_sub(requested_at)
    }
}

/// Traffic counters for the link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Total bytes transferred (headers + flits) — numerator of EQ 1.
    pub total_bytes: u64,
    /// Bytes belonging to data flits only (no headers).
    pub data_bytes: u64,
    /// Bytes of messages flagged as prefetch traffic.
    pub prefetch_bytes: u64,
    /// Messages sent.
    pub messages: u64,
    /// Sum of per-message queueing delays in cycles.
    pub queue_delay_cycles: u64,
    /// Cycles the link spent busy transferring.
    pub busy_cycles: u64,
    /// Messages lost in transit by fault injection. The flits still
    /// crossed the wire (their bytes and busy cycles are counted above);
    /// only the payload never arrived.
    pub dropped_messages: u64,
    /// Messages whose flits were corrupted in transit by fault injection
    /// (detected at the receiver, forcing a retransmit).
    pub corrupted_messages: u64,
}

impl ChannelStats {
    /// Checks flit conservation: every byte counted on the link is either
    /// one message header or one data flit, so
    /// `total_bytes == messages × HEADER_BYTES + data_bytes`, and the
    /// prefetch/data sub-counters can never exceed the total. Used by the
    /// simulator's opt-in invariant checker (`CMPSIM_CHECK=1`).
    ///
    /// # Errors
    ///
    /// Returns a description of the violated conservation law.
    pub fn check(&self) -> Result<(), String> {
        let expected = self.messages * crate::message::HEADER_BYTES as u64 + self.data_bytes;
        if self.total_bytes != expected {
            return Err(format!(
                "flit conservation violated: total_bytes {} != {} messages × {}B headers \
                 + {} data bytes = {}",
                self.total_bytes,
                self.messages,
                crate::message::HEADER_BYTES,
                self.data_bytes,
                expected
            ));
        }
        if self.data_bytes > self.total_bytes {
            return Err(format!(
                "data bytes {} exceed total bytes {}",
                self.data_bytes, self.total_bytes
            ));
        }
        if self.prefetch_bytes > self.total_bytes {
            return Err(format!(
                "prefetch bytes {} exceed total bytes {}",
                self.prefetch_bytes, self.total_bytes
            ));
        }
        Ok(())
    }
}

/// A bandwidth-metered, FIFO-serializing, full-duplex link.
///
/// The pin interface is modeled as two independent lanes, each with the
/// configured bandwidth: *upstream* (read requests and writebacks toward
/// the memory controller) and *downstream* (data responses toward the
/// chip). Within a lane, messages serialize FIFO, so bursts of misses
/// produce queueing delays — the contention effect at the heart of the
/// paper.
///
/// # Examples
///
/// ```
/// use cmpsim_link::{Channel, LinkBandwidth, Message};
/// use cmpsim_cache::BlockAddr;
///
/// // 20 GB/s at 5 GHz = 4 bytes/cycle: a 72-byte message takes 18 cycles.
/// let mut link = Channel::new(LinkBandwidth::GBps(20), 5);
/// let t = link.send(100, &Message::data_response(BlockAddr(0), 8, false));
/// assert_eq!(t.start, 100);
/// assert_eq!(t.done, 118);
/// // A second response queues behind the first on the same lane…
/// let t2 = link.send(100, &Message::data_response(BlockAddr(1), 8, false));
/// assert_eq!(t2.start, 118);
/// // …while a request rides the free upstream lane immediately.
/// let t3 = link.send(100, &Message::read_request(BlockAddr(2), false));
/// assert_eq!(t3.start, 100);
/// ```
#[derive(Debug, Clone)]
pub struct Channel {
    bandwidth: LinkBandwidth,
    clock_ghz: u32,
    /// Per-lane occupancy. With width 1 both directions share lane 0;
    /// otherwise direction `d` owns lanes `d, d + 2, d + 4, …` (so the
    /// default width 2 is exactly `[upstream, downstream]`).
    next_free: Vec<u64>,
    stats: ChannelStats,
}

impl Channel {
    /// Creates a link with the given bandwidth on a `clock_ghz` GHz chip,
    /// with the default full-duplex width of 2 lanes (one per direction).
    ///
    /// # Panics
    ///
    /// Panics if `clock_ghz` is zero.
    pub fn new(bandwidth: LinkBandwidth, clock_ghz: u32) -> Self {
        Self::with_width(bandwidth, clock_ghz, 2)
    }

    /// Creates a link with `width` sub-links, each with the configured
    /// bandwidth. Width 1 is a half-duplex link both directions contend
    /// for; width 2 is the paper's full-duplex pin interface; wider links
    /// give each direction `width / 2` (rounded toward upstream) parallel
    /// lanes, a message picking the earliest-free lane of its direction.
    ///
    /// # Panics
    ///
    /// Panics if `clock_ghz` or `width` is zero.
    pub fn with_width(bandwidth: LinkBandwidth, clock_ghz: u32, width: usize) -> Self {
        assert!(clock_ghz > 0, "clock must be positive");
        assert!(width > 0, "link needs at least one lane");
        Channel { bandwidth, clock_ghz, next_free: vec![0; width], stats: ChannelStats::default() }
    }

    /// The configured bandwidth.
    pub fn bandwidth(&self) -> LinkBandwidth {
        self.bandwidth
    }

    /// The configured number of sub-links.
    pub fn width(&self) -> usize {
        self.next_free.len()
    }

    /// The lanes direction `d` (0 = upstream, 1 = downstream) schedules
    /// on: lane 0 only at width 1, else `d, d + 2, d + 4, …`.
    fn lanes_for(&self, direction: usize) -> impl Iterator<Item = usize> + '_ {
        let width = self.next_free.len();
        let (start, step) = if width == 1 { (0, 1) } else { (direction, 2) };
        (start..width).step_by(step)
    }

    /// Serialization time of `bytes` on this link, ignoring queueing.
    pub fn duration_cycles(&self, bytes: usize) -> u64 {
        match self.bandwidth {
            LinkBandwidth::Infinite => 0,
            LinkBandwidth::GBps(gbps) => {
                // bytes/cycle = GB/s ÷ Gcycles/s; duration rounds up.
                let bytes = bytes as u64;
                (bytes * u64::from(self.clock_ghz)).div_ceil(u64::from(gbps))
            }
        }
    }

    /// Schedules `msg` at time `now` on its direction lane, returning the
    /// occupancy window.
    pub fn send(&mut self, now: u64, msg: &Message) -> Transfer {
        let direction = match msg.kind {
            crate::MessageKind::DataResponse => 1,
            crate::MessageKind::ReadRequest | crate::MessageKind::Writeback => 0,
        };
        // Earliest-free lane of the direction (lowest index on ties, so
        // the default width 2 degenerates to the fixed per-direction
        // lane it has always been).
        let lane = self
            .lanes_for(direction)
            .min_by_key(|&l| (self.next_free[l], l))
            .expect("width >= 1 guarantees a lane");
        let bytes = msg.size_bytes();
        let duration = self.duration_cycles(bytes);
        let start = now.max(self.next_free[lane]);
        let done = start + duration;
        self.next_free[lane] = done;

        self.stats.total_bytes += bytes as u64;
        self.stats.data_bytes += if msg.segments == 0 {
            0
        } else {
            cmpsim_fpc::segment_bytes_for(msg.segments) as u64
        };
        if msg.for_prefetch {
            self.stats.prefetch_bytes += bytes as u64;
        }
        self.stats.messages += 1;
        self.stats.queue_delay_cycles += start - now;
        self.stats.busy_cycles += duration;

        Transfer { start, done }
    }

    /// Sends `msg` but loses it in transit: the flits occupy the lane
    /// and burn bandwidth exactly like [`send`](Channel::send) — so the
    /// conservation law checked by [`ChannelStats::check`] still holds —
    /// but the caller must treat the payload as undelivered and retry.
    /// Returns the occupancy window of the doomed transfer (its `done`
    /// is when the loss could at the earliest be detected downstream).
    pub fn send_dropped(&mut self, now: u64, msg: &Message) -> Transfer {
        let tr = self.send(now, msg);
        self.stats.dropped_messages += 1;
        tr
    }

    /// Sends `msg` with its data flits corrupted in transit: delivery
    /// timing and byte accounting match [`send`](Channel::send), but the
    /// receiver's integrity check will reject the payload, forcing a
    /// retransmit.
    pub fn send_corrupted(&mut self, now: u64, msg: &Message) -> Transfer {
        let tr = self.send(now, msg);
        self.stats.corrupted_messages += 1;
        tr
    }

    /// Receiver-side integrity gate for a delivered data payload: the
    /// line image reconstructed by the codec's fast decoder is accepted
    /// only if its FNV checksum matches the checksum computed over the
    /// line before serialization. [`send_corrupted`](Channel::send_corrupted)
    /// transfers are exactly those that fail this check — a single-bit
    /// flit flip always perturbs the FNV-1a checksum — which is what
    /// triggers the engine's NACK + retransmit path.
    pub fn payload_intact(
        delivered: &[u8; cmpsim_fpc::LINE_BYTES],
        expected_checksum: u32,
    ) -> bool {
        cmpsim_fpc::integrity::line_checksum(delivered) == expected_checksum
    }

    /// Traffic counters.
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// Remaining busy cycles per direction (`[upstream, downstream]`) as
    /// seen from cycle `now` — the queue depth, in time units, behind
    /// which a new message would wait (the earliest-free lane of the
    /// direction, since that is where it would schedule). Diagnostic
    /// input for the simulator's livelock dump.
    pub fn lane_backlog(&self, now: u64) -> [u64; 2] {
        let backlog = |d: usize| {
            self.lanes_for(d)
                .map(|l| self.next_free[l].saturating_sub(now))
                .min()
                .unwrap_or(0)
        };
        [backlog(0), backlog(1)]
    }

    /// Clears counters (end of warmup) without resetting link occupancy.
    pub fn reset_stats(&mut self) {
        self.stats = ChannelStats::default();
    }

    /// Observed traffic rate over `elapsed_cycles`, in GB/s (EQ 1's
    /// *bandwidth demand* when the link is [`LinkBandwidth::Infinite`]).
    pub fn traffic_gbps(&self, elapsed_cycles: u64) -> f64 {
        if elapsed_cycles == 0 {
            return 0.0;
        }
        self.stats.total_bytes as f64 / elapsed_cycles as f64 * f64::from(self.clock_ghz)
    }

    /// Fraction of the link's aggregate capacity (all configured lanes)
    /// spent busy over `elapsed_cycles`, as a percentage in `[0, 100]`.
    /// Capacity is `width × elapsed`, not a hardcoded 2 — a half-duplex
    /// width-1 link saturates at half the busy cycles a full-duplex one
    /// does. Queueing can push accumulated busy cycles past the elapsed
    /// window on one lane, so the value is clamped. Telemetry input; 0
    /// for an empty window.
    pub fn utilization_pct(&self, elapsed_cycles: u64) -> f64 {
        if elapsed_cycles == 0 {
            return 0.0;
        }
        let capacity = self.next_free.len() as f64 * elapsed_cycles as f64;
        (self.stats.busy_cycles as f64 / capacity * 100.0).clamp(0.0, 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpsim_cache::BlockAddr;

    #[test]
    fn serialization_times() {
        let link = Channel::new(LinkBandwidth::GBps(20), 5);
        assert_eq!(link.duration_cycles(72), 18);
        assert_eq!(link.duration_cycles(8), 2);
        assert_eq!(link.duration_cycles(1), 1, "rounds up");
        let fat = Channel::new(LinkBandwidth::GBps(80), 5);
        assert_eq!(fat.duration_cycles(72), 5, "72*5/80 = 4.5 → 5");
    }

    #[test]
    fn infinite_bandwidth_is_instant_but_counted() {
        let mut link = Channel::new(LinkBandwidth::Infinite, 5);
        let t = link.send(50, &Message::data_response(BlockAddr(0), 8, false));
        assert_eq!(t, Transfer { start: 50, done: 50 });
        assert_eq!(link.stats().total_bytes, 72);
        assert!((link.traffic_gbps(100) - 3.6).abs() < 1e-9);
    }

    #[test]
    fn fifo_queueing() {
        let mut link = Channel::new(LinkBandwidth::GBps(20), 5);
        let a = link.send(0, &Message::data_response(BlockAddr(0), 8, false));
        let b = link.send(0, &Message::data_response(BlockAddr(1), 8, false));
        assert_eq!(a.done, 18);
        assert_eq!(b.start, 18);
        assert_eq!(b.done, 36);
        assert_eq!(b.queue_delay(0), 18);
        assert_eq!(link.stats().queue_delay_cycles, 18);
        assert_eq!(link.stats().busy_cycles, 36);
    }

    #[test]
    fn idle_gaps_are_not_queueing() {
        let mut link = Channel::new(LinkBandwidth::GBps(20), 5);
        link.send(0, &Message::read_request(BlockAddr(0), false));
        let t = link.send(1000, &Message::read_request(BlockAddr(1), false));
        assert_eq!(t.start, 1000);
        assert_eq!(t.queue_delay(1000), 0);
    }

    #[test]
    fn lanes_are_independent() {
        let mut link = Channel::new(LinkBandwidth::GBps(20), 5);
        let down = link.send(0, &Message::data_response(BlockAddr(0), 8, false));
        let up = link.send(0, &Message::writeback(BlockAddr(1), 8));
        assert_eq!(down.start, 0);
        assert_eq!(up.start, 0, "writebacks ride the upstream lane");
        let up2 = link.send(0, &Message::read_request(BlockAddr(2), false));
        assert_eq!(up2.start, 18, "requests queue behind writebacks");
    }

    #[test]
    fn prefetch_bytes_tracked() {
        let mut link = Channel::new(LinkBandwidth::GBps(20), 5);
        link.send(0, &Message::data_response(BlockAddr(0), 4, true));
        link.send(0, &Message::data_response(BlockAddr(1), 4, false));
        assert_eq!(link.stats().prefetch_bytes, 40);
        assert_eq!(link.stats().total_bytes, 80);
        assert_eq!(link.stats().data_bytes, 64);
    }

    #[test]
    fn flit_conservation_holds_and_detects_corruption() {
        let mut link = Channel::new(LinkBandwidth::GBps(20), 5);
        assert_eq!(link.stats().check(), Ok(()));
        link.send(0, &Message::read_request(BlockAddr(0), false));
        link.send(0, &Message::data_response(BlockAddr(0), 3, true));
        link.send(5, &Message::writeback(BlockAddr(1), 8));
        assert_eq!(link.stats().check(), Ok(()));
        link.reset_stats();
        assert_eq!(link.stats().check(), Ok(()));

        // A corrupted counter set is rejected with a description.
        let bad = ChannelStats { total_bytes: 100, data_bytes: 8, messages: 1, ..Default::default() };
        assert!(bad.check().unwrap_err().contains("flit conservation"));
        let bad = ChannelStats {
            total_bytes: 16,
            data_bytes: 8,
            prefetch_bytes: 99,
            messages: 1,
            ..Default::default()
        };
        assert!(bad.check().unwrap_err().contains("prefetch bytes"));
    }

    #[test]
    fn payload_intact_accepts_clean_and_rejects_flipped_deliveries() {
        let mut line = [0u8; cmpsim_fpc::LINE_BYTES];
        for (i, b) in line.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(31);
        }
        let checksum = cmpsim_fpc::integrity::line_checksum(&line);
        assert!(Channel::payload_intact(&line, checksum));
        for bit in [0u16, 7, 63, 255, 511] {
            let mut delivered = line;
            cmpsim_fpc::integrity::flip_bit(&mut delivered, bit);
            assert!(
                !Channel::payload_intact(&delivered, checksum),
                "bit {bit}: single-bit corruption must be rejected"
            );
        }
    }

    #[test]
    fn lane_backlog_reports_queue_depth() {
        let mut link = Channel::new(LinkBandwidth::GBps(20), 5);
        assert_eq!(link.lane_backlog(0), [0, 0]);
        link.send(0, &Message::data_response(BlockAddr(0), 8, false)); // 18 cycles downstream
        link.send(0, &Message::read_request(BlockAddr(1), false)); // 2 cycles upstream
        assert_eq!(link.lane_backlog(0), [2, 18]);
        assert_eq!(link.lane_backlog(10), [0, 8]);
        assert_eq!(link.lane_backlog(100), [0, 0]);
    }

    #[test]
    fn utilization_spans_both_lanes_and_clamps() {
        let mut link = Channel::new(LinkBandwidth::GBps(20), 5);
        assert_eq!(link.utilization_pct(0), 0.0);
        assert_eq!(link.utilization_pct(100), 0.0);
        link.send(0, &Message::data_response(BlockAddr(0), 8, false)); // 18 busy cycles
        assert!((link.utilization_pct(18) - 50.0).abs() < 1e-9, "one of two lanes busy");
        link.send(0, &Message::data_response(BlockAddr(1), 8, false)); // queued: 36 total
        assert_eq!(link.utilization_pct(10), 100.0, "clamped when busy exceeds window");
    }

    #[test]
    fn utilization_capacity_follows_width() {
        // One 18-busy-cycle response over an 18-cycle window: capacity is
        // width × elapsed, so the same traffic reads 100% / 50% / 25% at
        // widths 1 / 2 / 4. (The pre-fix code hardcoded the divisor at 2
        // and would report 50% regardless of width.)
        for (width, expected) in [(1usize, 100.0), (2, 50.0), (4, 25.0)] {
            let mut link = Channel::with_width(LinkBandwidth::GBps(20), 5, width);
            link.send(0, &Message::data_response(BlockAddr(0), 8, false));
            assert_eq!(link.stats().busy_cycles, 18);
            assert!(
                (link.utilization_pct(18) - expected).abs() < 1e-9,
                "width {width}: got {} want {expected}",
                link.utilization_pct(18)
            );
        }
    }

    #[test]
    fn width_one_is_half_duplex() {
        let mut link = Channel::with_width(LinkBandwidth::GBps(20), 5, 1);
        let down = link.send(0, &Message::data_response(BlockAddr(0), 8, false));
        let up = link.send(0, &Message::read_request(BlockAddr(1), false));
        assert_eq!(down.done, 18);
        assert_eq!(up.start, 18, "requests contend with responses on the single lane");
        assert_eq!(link.lane_backlog(0), [20, 20], "one shared lane, one shared backlog");
    }

    #[test]
    fn width_four_gives_each_direction_two_lanes() {
        let mut link = Channel::with_width(LinkBandwidth::GBps(20), 5, 4);
        let a = link.send(0, &Message::data_response(BlockAddr(0), 8, false));
        let b = link.send(0, &Message::data_response(BlockAddr(1), 8, false));
        let c = link.send(0, &Message::data_response(BlockAddr(2), 8, false));
        assert_eq!(a.start, 0);
        assert_eq!(b.start, 0, "second response rides the second downstream lane");
        assert_eq!(c.start, 18, "third queues behind the earliest-free lane");
        assert_eq!(link.lane_backlog(0), [0, 18], "upstream untouched; earliest busy lane wins");
        let up = link.send(0, &Message::writeback(BlockAddr(3), 8));
        assert_eq!(up.start, 0, "upstream lanes are independent of downstream");
    }

    #[test]
    fn default_width_two_matches_historic_lane_assignment() {
        // Channel::new must stay bit-identical to the fixed
        // [upstream, downstream] lanes (the grid-digest golden gate
        // depends on it).
        let mut fixed = Channel::new(LinkBandwidth::GBps(20), 5);
        assert_eq!(fixed.width(), 2);
        let a = fixed.send(0, &Message::data_response(BlockAddr(0), 8, false));
        let b = fixed.send(0, &Message::read_request(BlockAddr(1), false));
        let c = fixed.send(0, &Message::data_response(BlockAddr(2), 8, false));
        assert_eq!((a.start, b.start, c.start), (0, 0, 18));
    }

    #[test]
    fn reset_keeps_occupancy() {
        let mut link = Channel::new(LinkBandwidth::GBps(20), 5);
        link.send(0, &Message::data_response(BlockAddr(0), 8, false));
        link.reset_stats();
        assert_eq!(link.stats().total_bytes, 0);
        let t = link.send(0, &Message::data_response(BlockAddr(1), 8, false));
        assert_eq!(t.start, 18, "stats reset must not free the link early");
    }

    #[test]
    fn faulted_sends_burn_bandwidth_and_keep_conservation() {
        let mut link = Channel::new(LinkBandwidth::GBps(20), 5);
        let good = link.send(0, &Message::data_response(BlockAddr(0), 8, false));
        let dropped = link.send_dropped(0, &Message::read_request(BlockAddr(1), false));
        let corrupt = link.send_corrupted(0, &Message::data_response(BlockAddr(2), 8, false));

        // Timing is identical to an intact send: the doomed message still
        // occupied its lane (the corrupt response queued behind the good
        // one; the dropped request rode the free upstream lane).
        assert_eq!(dropped.start, 0);
        assert_eq!(corrupt.start, good.done);

        let s = link.stats();
        assert_eq!(s.dropped_messages, 1);
        assert_eq!(s.corrupted_messages, 1);
        assert_eq!(s.messages, 3, "faulted messages are still traffic");
        assert_eq!(s.check(), Ok(()), "flit conservation must survive faults");

        link.reset_stats();
        assert_eq!(link.stats().dropped_messages, 0);
        assert_eq!(link.stats().corrupted_messages, 0);
    }
}
