//! Float comparison helpers — the one sanctioned site for `==` on floats.
//!
//! The repo's `trimgrad-lint` pass flags every `==`/`!=` against a float
//! literal (`float-eq`): sprinkled exact comparisons are how convergence
//! checks and sparsity masks silently diverge between builds. Code that
//! genuinely needs a float test calls these helpers instead, so the intent
//! (bitwise-exact mask vs. tolerance check) is explicit and auditable in one
//! place.

/// Default relative tolerance for [`approx_eq`] on `f32` values.
pub const REL_EPS_F32: f32 = 1e-6;

/// Default relative tolerance for [`approx_eq_f64`] on `f64` values.
pub const REL_EPS_F64: f64 = 1e-12;

/// Bitwise-exact zero test (`+0.0` and `-0.0` both match).
///
/// Use for sparsity masks and guards before division, where "exactly the
/// value written" is the semantics — not for convergence checks.
#[must_use]
pub fn exactly_zero(x: f32) -> bool {
    // trimlint: allow(float-eq) -- designated exact-comparison site
    x == 0.0
}

/// Bitwise-exact zero test for `f64`.
#[must_use]
pub fn exactly_zero_f64(x: f64) -> bool {
    // trimlint: allow(float-eq) -- designated exact-comparison site
    x == 0.0
}

/// Relative-tolerance equality: `|a − b| ≤ eps · max(|a|, |b|, 1)`.
///
/// The `1` floor makes the tolerance absolute near zero, so
/// `approx_eq(1e-9, 0.0, 1e-6)` holds.
#[must_use]
pub fn approx_eq(a: f32, b: f32, eps: f32) -> bool {
    (a - b).abs() <= eps * a.abs().max(b.abs()).max(1.0)
}

/// Relative-tolerance equality for `f64`; see [`approx_eq`].
#[must_use]
pub fn approx_eq_f64(a: f64, b: f64, eps: f64) -> bool {
    (a - b).abs() <= eps * a.abs().max(b.abs()).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_zero_matches_both_signs() {
        assert!(exactly_zero(0.0));
        assert!(exactly_zero(-0.0));
        assert!(!exactly_zero(f32::MIN_POSITIVE));
        assert!(exactly_zero_f64(0.0));
        assert!(!exactly_zero_f64(f64::MIN_POSITIVE));
    }

    #[test]
    fn approx_eq_is_relative_with_absolute_floor() {
        assert!(approx_eq(1e-9, 0.0, REL_EPS_F32));
        assert!(approx_eq(1e6, 1e6 + 0.5, REL_EPS_F32));
        assert!(!approx_eq(1.0, 1.001, REL_EPS_F32));
        assert!(approx_eq_f64(1e-15, 0.0, REL_EPS_F64));
        assert!(!approx_eq_f64(1.0, 1.0 + 1e-9, REL_EPS_F64));
    }
}
