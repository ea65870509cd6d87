//! Simulated time and rate arithmetic.
//!
//! Time is a monotone `u64` nanosecond counter from simulation start; rates
//! are bits per second. All conversions round serialization delays *up* so a
//! packet never finishes transmitting early.

/// A point in simulated time (nanoseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// From nanoseconds.
    #[must_use]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// From microseconds.
    #[must_use]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// From milliseconds.
    #[must_use]
    pub fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// From seconds.
    #[must_use]
    pub fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// As nanoseconds.
    #[must_use]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// As fractional seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating difference `self − earlier`.
    #[must_use]
    pub fn since(self, earlier: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(earlier.0))
    }
}

impl core::ops::Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl core::ops::AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl core::ops::Mul<u64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl core::fmt::Display for SimTime {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}µs", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

/// A link rate in bits per second.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rate(pub u64);

/// Convenience constructor: gigabits per second.
#[must_use]
pub fn gbps(g: f64) -> Rate {
    Rate((g * 1e9) as u64)
}

impl Rate {
    /// The time to serialize `bytes` at this rate, rounded up to a whole
    /// nanosecond. Saturates at `u64::MAX` nanoseconds (≈ 584 years of
    /// simulated time — effectively "never finishes").
    ///
    /// # Panics
    ///
    /// Panics on a zero rate (a misconfigured topology).
    #[must_use]
    pub fn serialize_time(self, bytes: usize) -> SimTime {
        assert!(self.0 > 0, "zero-rate link");
        // Exact in 64 bits whenever `bytes · 8·10⁹` fits (any packet).
        if let Some(bit_ns) = (bytes as u64).checked_mul(8_000_000_000) {
            return SimTime(bit_ns.div_ceil(self.0));
        }
        let bits = bytes as u128 * 8;
        let ns = (bits * 1_000_000_000).div_ceil(self.0 as u128);
        SimTime(u64::try_from(ns).unwrap_or(u64::MAX))
    }
}

impl core::fmt::Display for Rate {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.1}Gbps", self.0 as f64 / 1e9)
        } else {
            write!(f, "{:.1}Mbps", self.0 as f64 / 1e6)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        assert_eq!(SimTime::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimTime::from_millis(2).as_nanos(), 2_000_000);
        assert_eq!(SimTime::from_secs(1).as_nanos(), 1_000_000_000);
        assert!((SimTime::from_millis(1500).as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_nanos(10) + SimTime::from_nanos(5);
        assert_eq!(t, SimTime(15));
        let mut u = t;
        u += SimTime(5);
        assert_eq!(u, SimTime(20));
        assert_eq!(u.since(t), SimTime(5));
        assert_eq!(t.since(u), SimTime::ZERO); // saturates
        assert_eq!(SimTime(3) * 4, SimTime(12));
    }

    #[test]
    fn display_units() {
        assert_eq!(SimTime(512).to_string(), "512ns");
        assert_eq!(SimTime::from_micros(2).to_string(), "2.000µs");
        assert_eq!(SimTime::from_millis(3).to_string(), "3.000ms");
        assert_eq!(SimTime::from_secs(4).to_string(), "4.000s");
        assert_eq!(gbps(100.0).to_string(), "100.0Gbps");
        assert_eq!(Rate(10_000_000).to_string(), "10.0Mbps");
    }

    #[test]
    fn serialization_times() {
        // 1500 B at 10 Gbps = 1.2 µs.
        assert_eq!(gbps(10.0).serialize_time(1500), SimTime::from_nanos(1_200));
        // 1 B at 100 Gbps = 0.08 ns → rounds up to 1 ns.
        assert_eq!(gbps(100.0).serialize_time(1), SimTime::from_nanos(1));
        // Zero bytes take zero time.
        assert_eq!(gbps(10.0).serialize_time(0), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "zero-rate link")]
    fn zero_rate_rejected() {
        let _ = Rate(0).serialize_time(1);
    }

    #[test]
    fn the_64_bit_path_agrees_with_128_bit_division() {
        let exact = |r: Rate, bytes: u64| {
            let ns = (u128::from(bytes) * 8_000_000_000).div_ceil(u128::from(r.0));
            SimTime(u64::try_from(ns).unwrap_or(u64::MAX))
        };
        // Both sides of the 64-bit limit (2 305 843 009 bytes), odd rates.
        let limit = u64::MAX / 8_000_000_000;
        for r in [Rate(1), Rate(3), Rate(999_999_937), gbps(10.0), gbps(400.0)] {
            for bytes in [
                0,
                1,
                63,
                64,
                1500,
                9000,
                limit - 1,
                limit,
                limit + 1,
                u64::MAX,
            ] {
                assert_eq!(
                    r.serialize_time(bytes as usize),
                    exact(r, bytes),
                    "{r} {bytes}"
                );
            }
        }
    }

    #[test]
    fn large_values_do_not_overflow() {
        // 1 GB at 1 Mbps ≈ 8000 s; must not overflow intermediate math.
        let t = Rate(1_000_000).serialize_time(1_000_000_000);
        assert!((t.as_secs_f64() - 8000.0).abs() < 1.0);
    }
}
