//! The paper's EWMA-of-interarrival register program (§8 "Counters").
//!
//! The Tofino cannot read-modify-write two registers in one stage, so the
//! paper splits the EWMA across phases keyed on packet-count parity:
//!
//! ```text
//! interarrival = pkt_timestamp - last_ts[port]
//! last_ts[port] = pkt_timestamp
//! if packet_count[port] is even:
//!     temp_ewma[port] += interarrival
//! else:
//!     temp_ewma[port] /= 2
//!     ewma[port] = (ewma[port] + temp_ewma[port]) / 2
//!     temp_ewma[port] = 0
//! ```
//!
//! i.e. the EWMA updates on every other packet with the *average
//! interarrival of the last two packets*, which is "functionally equivalent
//! to an EWMA with a decay factor of .5". (The paper's listing elides the
//! accumulate-then-halve bookkeeping — `ewma[port] /= temp_ewma[port]` as
//! printed is a typo, since dividing a time by a time yields a unitless
//! value; we implement the stated intent.)
//!
//! All registers are integer nanoseconds, as they would be on the ASIC.

use netsim::time::Instant;

/// Per-port EWMA-of-interarrival registers.
#[derive(Debug, Clone)]
pub struct EwmaInterarrival {
    last_ts: Vec<u64>,
    packet_count: Vec<u64>,
    temp_ewma: Vec<u64>,
    ewma: Vec<u64>,
    /// Decay shift `k`: each pair average is folded in as
    /// `ewma ← ((2^k − 1)·ewma + pair_avg) / 2^k`. The paper's listing is
    /// `k = 1` (decay .5); larger shifts give the longer-memory smoothing
    /// a rate study wants (still just shift-and-add on the ASIC).
    decay_shift: u8,
}

impl EwmaInterarrival {
    /// Create registers for `ports` ports, all zeroed (paper's decay .5).
    pub fn new(ports: u16) -> EwmaInterarrival {
        let n = usize::from(ports);
        EwmaInterarrival {
            last_ts: vec![0; n],
            packet_count: vec![0; n],
            temp_ewma: vec![0; n],
            ewma: vec![0; n],
            decay_shift: 1,
        }
    }

    /// Use decay `1/2^k` instead of the paper's `1/2`.
    pub fn with_decay_shift(mut self, k: u8) -> EwmaInterarrival {
        assert!((1..=8).contains(&k));
        self.decay_shift = k;
        self
    }

    /// Process one packet arrival on `port` at `now`; a port past the
    /// registers updates nothing.
    pub fn on_packet(&mut self, port: u16, now: Instant) {
        let p = usize::from(port);
        let (Some(last_ts), Some(count), Some(temp), Some(ewma)) = (
            self.last_ts.get_mut(p),
            self.packet_count.get_mut(p),
            self.temp_ewma.get_mut(p),
            self.ewma.get_mut(p),
        ) else {
            return;
        };
        let ts = now.as_nanos();
        let interarrival = ts.saturating_sub(*last_ts);
        *last_ts = ts;
        if *count == 0 {
            // Very first packet: no interarrival exists yet; prime the
            // timestamp register only (counts as packet 0, "even", with a
            // zero contribution).
            *count = 1;
            return;
        }
        if *count % 2 == 1 {
            // Even data-phase (first of a pair): accumulate.
            *temp += interarrival;
        } else {
            // Odd phase (second of a pair): fold the pair average in with
            // decay 0.5.
            let pair_avg = (*temp + interarrival) / 2;
            *ewma = if *ewma == 0 {
                pair_avg
            } else {
                let k = u32::from(self.decay_shift);
                (*ewma * ((1 << k) - 1) + pair_avg) >> k
            };
            *temp = 0;
        }
        *count += 1;
    }

    /// The snapshotted register: current EWMA of interarrival,
    /// nanoseconds; 0 for a port past the registers.
    pub fn read(&self, port: u16) -> u64 {
        self.ewma.get(usize::from(port)).copied().unwrap_or(0)
    }

    /// Packets seen on `port`; 0 for a port past the registers.
    pub fn packets(&self, port: u16) -> u64 {
        self.packet_count
            .get(usize::from(port))
            .copied()
            .unwrap_or(0)
    }

    /// Derived packet rate in packets/second (`1e9 / ewma`), or 0 if no
    /// estimate exists yet. The Fig. 13 correlation study uses this view.
    pub fn rate_pps(&self, port: u16) -> f64 {
        let e = self.read(port);
        if e == 0 {
            0.0
        } else {
            1e9 / e as f64
        }
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
    fn constant_spacing_converges_to_the_interarrival() {
        let mut m = EwmaInterarrival::new(1);
        for i in 0..100 {
            m.on_packet(0, at(10 * i)); // 10 µs spacing
        }
        let e = m.read(0);
        assert!(
            (9_000..=10_000).contains(&e),
            "ewma {e} ns should approach 10 µs"
        );
    }

    #[test]
    fn first_packet_produces_no_estimate() {
        let mut m = EwmaInterarrival::new(1);
        m.on_packet(0, at(5));
        assert_eq!(m.read(0), 0);
        assert_eq!(m.packets(0), 1);
        // Second packet completes no pair yet (it is the accumulate phase).
        m.on_packet(0, at(15));
        assert_eq!(m.read(0), 0);
        // Third packet folds the first pair in.
        m.on_packet(0, at(25));
        assert_eq!(m.read(0), 10_000);
    }

    #[test]
    fn decay_factor_is_one_half() {
        let mut m = EwmaInterarrival::new(1);
        // Prime with 100 packets at 10 µs so the EWMA settles near 10 µs.
        let mut t = 0;
        for _ in 0..101 {
            m.on_packet(0, at(t));
            t += 10;
        }
        let settled = m.read(0) as f64;
        // One pair at 2 µs spacing: new = (old + 2 µs)/2.
        m.on_packet(0, at(t + 2));
        m.on_packet(0, at(t + 4));
        let expected = (settled + 2_000.0) / 2.0;
        let got = m.read(0) as f64;
        assert!(
            (got - expected).abs() <= settled * 0.35 + 2.0,
            "got {got}, expected ≈ {expected}"
        );
    }

    #[test]
    fn bursty_traffic_pulls_the_average_down() {
        let mut steady = EwmaInterarrival::new(1);
        let mut bursty = EwmaInterarrival::new(1);
        for i in 0..200u64 {
            steady.on_packet(0, at(100 * i));
        }
        // Same packet count, same span, but clustered in bursts of 10
        // packets 1 µs apart.
        let mut t = 0;
        for burst in 0..20u64 {
            for j in 0..10u64 {
                bursty.on_packet(0, at(burst * 1_000 + j));
                t = burst * 1_000 + j;
            }
        }
        let _ = t;
        assert!(
            bursty.read(0) < steady.read(0) / 4,
            "bursty {} vs steady {}",
            bursty.read(0),
            steady.read(0)
        );
    }

    #[test]
    fn larger_decay_shift_smooths_harder() {
        let mut fast = EwmaInterarrival::new(1);
        let mut slow = EwmaInterarrival::new(1).with_decay_shift(5);
        // Settle both at 10 µs spacing…
        let mut t = 0;
        for _ in 0..201 {
            fast.on_packet(0, at(t));
            slow.on_packet(0, at(t));
            t += 10;
        }
        let f0 = fast.read(0);
        let s0 = slow.read(0);
        // …then hit them with one 1 µs pair.
        fast.on_packet(0, at(t + 1));
        fast.on_packet(0, at(t + 2));
        slow.on_packet(0, at(t + 1));
        slow.on_packet(0, at(t + 2));
        let df = f0 - fast.read(0);
        let ds = s0 - slow.read(0);
        assert!(df > 4 * ds, "fast moved {df}, slow moved {ds}");
    }

    #[test]
    fn ports_are_independent() {
        let mut m = EwmaInterarrival::new(2);
        for i in 0..50 {
            m.on_packet(0, at(10 * i));
            m.on_packet(1, at(50 * i));
        }
        assert!(m.read(1) > 3 * m.read(0));
        assert_eq!(m.packets(0), 50);
        assert_eq!(m.packets(1), 50);
    }

    #[test]
    fn rate_view_inverts_interarrival() {
        let mut m = EwmaInterarrival::new(1);
        assert_eq!(m.rate_pps(0), 0.0);
        for i in 0..100 {
            m.on_packet(0, at(10 * i));
        }
        let rate = m.rate_pps(0);
        // 10 µs spacing → 100k pps.
        assert!((rate - 1e5).abs() / 1e5 < 0.15, "rate {rate}");
    }
}
