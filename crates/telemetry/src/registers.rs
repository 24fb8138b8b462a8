//! Metric register banks.
//!
//! One [`MetricBank`] holds a single metric across all ports of one device
//! side. The bank exposes the three operations the snapshot data plane
//! needs (§5.2–5.3):
//!
//! * [`MetricBank::read`] — the register value to *save* when a snapshot
//!   triggers (called before the packet's own update, per Fig. 3);
//! * [`MetricBank::on_packet`] — the orthogonal metric update;
//! * [`MetricBank::contrib`] — the packet's channel-state contribution if
//!   it turns out to be in flight (metric-specific, §4.2).

use crate::ewma::EwmaInterarrival;
use netsim::time::Instant;

/// Which metric a bank implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetricKind {
    /// Per-port packet counter. Channel contribution: 1 per packet.
    PacketCount,
    /// Per-port byte counter. Channel contribution: packet length.
    ByteCount,
    /// Queue depth gauge (set by the queueing engine, not by packets).
    /// Channel state is meaningless for instantaneous gauges (§4.2).
    QueueDepth,
    /// EWMA of packet interarrival time (§8), decay .5. No channel state.
    EwmaInterarrival,
    /// Longer-memory interarrival EWMA (decay 1/16): the smoothed
    /// packet-rate view used by the correlation study (§8.4).
    EwmaRate,
}

impl MetricKind {
    /// Whether channel state is meaningful for this metric.
    pub fn supports_channel_state(self) -> bool {
        matches!(self, MetricKind::PacketCount | MetricKind::ByteCount)
    }
}

/// A per-port register bank for one metric.
#[derive(Debug, Clone)]
pub struct MetricBank {
    kind: MetricKind,
    counters: Vec<u64>,
    ewma: EwmaInterarrival,
}

impl MetricBank {
    /// Create a zeroed bank for `ports` ports.
    pub fn new(kind: MetricKind, ports: u16) -> MetricBank {
        let ewma = match kind {
            MetricKind::EwmaRate => EwmaInterarrival::new(ports).with_decay_shift(4),
            _ => EwmaInterarrival::new(ports),
        };
        MetricBank {
            kind,
            counters: vec![0; usize::from(ports)],
            ewma,
        }
    }

    /// The metric this bank implements.
    pub fn kind(&self) -> MetricKind {
        self.kind
    }

    /// Register value for `port` (what a snapshot saves); 0 for a port
    /// past the bank.
    pub fn read(&self, port: u16) -> u64 {
        match self.kind {
            MetricKind::EwmaInterarrival | MetricKind::EwmaRate => self.ewma.read(port),
            _ => self.counters.get(usize::from(port)).copied().unwrap_or(0),
        }
    }

    /// Apply one packet's update; a port past the bank updates nothing.
    #[inline]
    pub fn on_packet(&mut self, port: u16, now: Instant, bytes: u32) {
        let add = match self.kind {
            MetricKind::PacketCount => 1,
            MetricKind::ByteCount => u64::from(bytes),
            MetricKind::QueueDepth => return, // gauge: driven by set_gauge
            MetricKind::EwmaInterarrival | MetricKind::EwmaRate => {
                return self.ewma.on_packet(port, now)
            }
        };
        if let Some(counter) = self.counters.get_mut(usize::from(port)) {
            *counter += add;
        }
    }

    /// Set a gauge register (queue depth updates from the queueing
    /// engine); a port past the bank updates nothing.
    pub fn set_gauge(&mut self, port: u16, value: u64) {
        debug_assert_eq!(self.kind, MetricKind::QueueDepth);
        if let Some(counter) = self.counters.get_mut(usize::from(port)) {
            *counter = value;
        }
    }

    /// The packet's channel-state contribution.
    pub fn contrib(&self, bytes: u32) -> u64 {
        match self.kind {
            MetricKind::PacketCount => 1,
            MetricKind::ByteCount => u64::from(bytes),
            MetricKind::QueueDepth | MetricKind::EwmaInterarrival | MetricKind::EwmaRate => 0,
        }
    }

    /// Access the EWMA view (rate conversion for the correlation study).
    pub fn ewma(&self) -> &EwmaInterarrival {
        &self.ewma
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::time::Duration;

    fn at(us: u64) -> Instant {
        Instant::ZERO + Duration::from_micros(us)
    }

    #[test]
    fn packet_counter_counts() {
        let mut b = MetricBank::new(MetricKind::PacketCount, 2);
        b.on_packet(0, at(1), 100);
        b.on_packet(0, at(2), 200);
        b.on_packet(1, at(3), 300);
        assert_eq!(b.read(0), 2);
        assert_eq!(b.read(1), 1);
        assert_eq!(b.contrib(1500), 1);
    }

    #[test]
    fn byte_counter_sums() {
        let mut b = MetricBank::new(MetricKind::ByteCount, 1);
        b.on_packet(0, at(1), 100);
        b.on_packet(0, at(2), 250);
        assert_eq!(b.read(0), 350);
        assert_eq!(b.contrib(1500), 1500);
    }

    #[test]
    fn queue_depth_is_a_gauge() {
        let mut b = MetricBank::new(MetricKind::QueueDepth, 1);
        b.on_packet(0, at(1), 100); // packets do not move the gauge
        assert_eq!(b.read(0), 0);
        b.set_gauge(0, 17);
        assert_eq!(b.read(0), 17);
        assert_eq!(
            b.contrib(1500),
            0,
            "instantaneous gauges skip channel state"
        );
    }

    #[test]
    fn ewma_bank_delegates() {
        let mut b = MetricBank::new(MetricKind::EwmaInterarrival, 1);
        for i in 0..100 {
            b.on_packet(0, at(10 * i), 64);
        }
        assert!(b.read(0) > 0);
        assert_eq!(b.read(0), b.ewma().read(0));
        assert_eq!(b.contrib(64), 0);
    }

    #[test]
    fn a_port_past_the_bank_reads_zero_and_updates_nothing() {
        for kind in [
            MetricKind::PacketCount,
            MetricKind::ByteCount,
            MetricKind::QueueDepth,
            MetricKind::EwmaInterarrival,
            MetricKind::EwmaRate,
        ] {
            let mut b = MetricBank::new(kind, 2);
            let before = format!("{b:?}");
            for (i, port) in [2, 3, u16::MAX].into_iter().enumerate() {
                b.on_packet(port, at(i as u64), 100);
                if kind == MetricKind::QueueDepth {
                    b.set_gauge(port, 5);
                }
                assert_eq!(b.read(port), 0, "{kind:?}");
                assert_eq!(b.ewma().packets(port), 0);
            }
            assert_eq!(format!("{b:?}"), before, "{kind:?}");
        }
    }

    #[test]
    fn channel_state_support_matches_metric_semantics() {
        assert!(MetricKind::PacketCount.supports_channel_state());
        assert!(MetricKind::ByteCount.supports_channel_state());
        assert!(!MetricKind::QueueDepth.supports_channel_state());
        assert!(!MetricKind::EwmaInterarrival.supports_channel_state());
    }
}
