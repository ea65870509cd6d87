//! Helpers shared by the integration tests.

/// The fixed seed matrix CI sweeps; `CHAOS_SEED` narrows a run to one seed
/// (decimal or `0x`-prefixed hex) to replay a recorded failure.
pub fn chaos_seeds() -> Vec<u64> {
    if let Ok(s) = std::env::var("CHAOS_SEED") {
        let s = s.trim();
        let parsed = match s.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => s.parse(),
        };
        return vec![parsed.expect("CHAOS_SEED must be a u64")];
    }
    vec![0x00C0_FFEE, 0xDEC0_DE01, 0x0072_13AB, 0xFA57_F00D]
}
