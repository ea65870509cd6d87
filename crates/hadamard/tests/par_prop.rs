//! Bit-identity of the pooled transforms against their serial forms.
//!
//! The deterministic worker pool's contract is that parallel output equals
//! serial output *bitwise*, for every pool width — that is what lets the
//! seeded-ring transcript stay byte-identical between `TRIMGRAD_THREADS=1`
//! and `=4`. These tests drive the pooled FWHT / RHT across thread counts
//! 1–8 and require exact equality (`==` on `f32` bit patterns, not
//! approximate closeness).

use trimgrad_hadamard::fwht::{fwht_inplace, fwht_inplace_pooled, fwht_orthonormal_pooled};
use trimgrad_hadamard::prng::Xoshiro256StarStar;
use trimgrad_hadamard::rht::RandomizedHadamard;
use trimgrad_par::WorkerPool;

fn random_vec(seed: u64, len: usize) -> Vec<f32> {
    let mut rng = Xoshiro256StarStar::new(seed);
    (0..len)
        .map(|_| rng.next_f32_range(-100.0, 100.0))
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn pooled_fwht_is_bit_identical_for_threads_1_to_8() {
    // Lengths straddle PAR_MIN_LEN so both the serial fallback and the real
    // parallel path (segment split + cross-segment tail) are exercised.
    for exp in [0usize, 3, 8, 11, 12, 13, 15] {
        let n = 1 << exp;
        let input = random_vec(0xF00D ^ exp as u64, n);
        let mut serial = input.clone();
        fwht_inplace(&mut serial).unwrap();
        for threads in 1..=8 {
            let pool = WorkerPool::new(threads);
            let mut par = input.clone();
            fwht_inplace_pooled(&mut par, &pool).unwrap();
            assert_eq!(
                bits(&par),
                bits(&serial),
                "fwht n={n} threads={threads} diverged"
            );
            let mut par_ortho = input.clone();
            fwht_orthonormal_pooled(&mut par_ortho, &pool).unwrap();
            let mut serial_ortho = input.clone();
            fwht_orthonormal_pooled(&mut serial_ortho, &WorkerPool::serial()).unwrap();
            assert_eq!(
                bits(&par_ortho),
                bits(&serial_ortho),
                "orthonormal n={n} threads={threads} diverged"
            );
        }
    }
}

#[test]
fn pooled_fwht_rejects_bad_lengths_like_serial() {
    let pool = WorkerPool::new(4);
    assert!(fwht_inplace_pooled(&mut [], &pool).is_err());
    let mut v = vec![1.0f32; 12];
    assert!(fwht_inplace_pooled(&mut v, &pool).is_err());
}

#[test]
fn pooled_rht_is_bit_identical_for_threads_1_to_8() {
    let n = 1 << 13;
    let input = random_vec(0xBEEF, n);
    let rht = RandomizedHadamard::new(42);
    let mut serial_fwd = input.clone();
    rht.forward_pooled(&mut serial_fwd, &WorkerPool::serial())
        .unwrap();
    let mut serial_inv = serial_fwd.clone();
    rht.inverse_pooled(&mut serial_inv, &WorkerPool::serial())
        .unwrap();
    for threads in 1..=8 {
        let pool = WorkerPool::new(threads);
        let mut fwd = input.clone();
        rht.forward_pooled(&mut fwd, &pool).unwrap();
        assert_eq!(bits(&fwd), bits(&serial_fwd), "forward threads={threads}");
        let mut inv = fwd;
        rht.inverse_pooled(&mut inv, &pool).unwrap();
        assert_eq!(bits(&inv), bits(&serial_inv), "inverse threads={threads}");
    }
}
