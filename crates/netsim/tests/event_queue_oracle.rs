//! Differential ordering harness for the event schedulers.
//!
//! The simulator's bit-determinism rests on its event queue firing events in
//! exact `(time, insertion-sequence)` order under *any* forward-running
//! interleaving of schedules and pops. This harness pins that contract for
//! the calendar [`EventQueue`] at its default geometry, at deliberately tiny
//! wheels, and at wide windows whose lane slots span many nanoseconds, by
//! replaying identical seeded op scripts against a naive sorted-`Vec` oracle
//! and asserting every pop, peek, and length agrees.
//!
//! A script schedules at offsets from the last popped time, the clock a
//! simulation's handler sees, so every schedule obeys the calendar's
//! forward-only contract while bursts, ties and far-future outliers keep
//! their shapes. The script families are chosen adversarially for a
//! calendar queue: equal-timestamp bursts (tie-break stress), far-future
//! outliers beyond any wheel horizon (overflow heap), interleaved
//! schedule-during-pop (window-advance churn), and the simulator's own shape
//! (every pop schedules a little ahead of the clock). DESIGN.md §5 sketches
//! why the calendar reproduces a single priority queue's total order; this
//! harness is the executable version of that argument.
//!
//! [`EventQueue`]: trimgrad_netsim::event::EventQueue

use proptest::prelude::*;
use trimgrad_hadamard::prng::Xoshiro256StarStar;
use trimgrad_netsim::event::{EventKind, EventQueue};
use trimgrad_netsim::time::SimTime;
use trimgrad_netsim::NodeId;

/// The naive oracle: every scheduled event as `(time, seq, token)`, popped
/// by scanning for the minimum `(time, seq)` — O(n) per pop, obviously
/// correct.
#[derive(Default)]
struct OracleQueue {
    pending: Vec<(SimTime, u64, u64)>,
    next_seq: u64,
}

impl OracleQueue {
    fn schedule(&mut self, at: SimTime, token: u64) {
        self.pending.push((at, self.next_seq, token));
        self.next_seq += 1;
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        let min = self
            .pending
            .iter()
            .enumerate()
            .min_by_key(|(_, &(at, seq, _))| (at, seq))?
            .0;
        let (at, _, token) = self.pending.swap_remove(min);
        Some((at, token))
    }
}

/// One step of a pre-generated script, so every wheel geometry replays the
/// exact same operation sequence.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Schedule this many nanoseconds after the last popped time (0 before
    /// the first pop).
    Schedule(u64),
    Pop,
}

fn token_of(kind: &EventKind) -> u64 {
    match kind {
        EventKind::AppTimer { token, .. } => *token,
        _ => unreachable!("harness schedules only AppTimer events"),
    }
}

/// Replays `script` on `q`, checking every pop, peek, and length against the
/// oracle, then drains both and checks the lifetime counters.
fn assert_matches_oracle(mut q: EventQueue, script: &[Op], label: &str) {
    let mut oracle = OracleQueue::default();
    let mut token = 0u64;
    let mut now = SimTime(0);
    for op in script {
        match *op {
            Op::Schedule(ahead) => {
                let at = SimTime(now.0 + ahead);
                q.schedule(
                    at,
                    EventKind::AppTimer {
                        node: NodeId(0),
                        token,
                    },
                );
                oracle.schedule(at, token);
                token += 1;
            }
            Op::Pop => {
                let got = q.pop().map(|e| (e.at, token_of(&e.kind)));
                assert_eq!(got, oracle.pop(), "mid-stream pop diverged ({label})");
                if let Some((at, _)) = got {
                    now = at;
                }
            }
        }
        assert_eq!(q.len(), oracle.pending.len(), "len diverged ({label})");
        assert_eq!(
            q.peek_time(),
            oracle.pending.iter().map(|&(at, ..)| at).min(),
            "peek_time diverged ({label})"
        );
    }
    loop {
        let got = q.pop().map(|e| (e.at, token_of(&e.kind)));
        let want = oracle.pop();
        assert_eq!(got, want, "drain diverged ({label})");
        if got.is_none() {
            break;
        }
    }
    assert_eq!(q.total_fired(), q.total_scheduled(), "counters ({label})");
}

/// Runs one script against the calendar at its default geometry, at two
/// tiny wheels whose horizons the script crosses constantly (4 × 16 ns and
/// 8 × 4 ns), and at two wide windows (4 × 65 µs and 2 × 1 ms) whose lane
/// slots are 8 ns and 128 ns wide — so events of different times share a
/// slot and the lane's sorted insert, which 1 ns slots never need, runs.
fn assert_all_geometries_match_oracle(script: &[Op], label: &str) {
    assert_matches_oracle(EventQueue::new(), script, &format!("{label}/default"));
    for (shift, buckets, name) in [
        (4, 4, "tiny_4x16ns"),
        (2, 8, "tiny_8x4ns"),
        (16, 4, "wide_4x65us"),
        (20, 2, "wide_2x1ms"),
    ] {
        assert_matches_oracle(
            EventQueue::with_geometry(shift, buckets),
            script,
            &format!("{label}/{name}"),
        );
    }
}

/// The baseline chaos mix: ~60% schedules uniformly in `[0, max_time)` ahead
/// of the clock, ~40% pops.
fn chaos_script(ops: usize, seed: u64, max_time: u64) -> Vec<Op> {
    let mut rng = Xoshiro256StarStar::new(seed);
    (0..ops)
        .map(|_| {
            if rng.next_u64() % 5 < 3 {
                Op::Schedule(rng.next_u64() % max_time)
            } else {
                Op::Pop
            }
        })
        .collect()
}

/// Equal-timestamp bursts: each schedule step emits 4–16 events at one
/// instant drawn from a tiny range ahead of the clock, so nearly every
/// comparison is a tie and only the insertion sequence orders the pops.
fn burst_script(steps: usize, seed: u64) -> Vec<Op> {
    let mut rng = Xoshiro256StarStar::new(seed);
    let mut script = Vec::new();
    for _ in 0..steps {
        if rng.next_u64() % 3 < 2 {
            let ahead = rng.next_u64() % 8;
            let burst = 4 + rng.next_u64() % 13;
            script.extend(std::iter::repeat_n(Op::Schedule(ahead), burst as usize));
        } else {
            script.push(Op::Pop);
        }
    }
    script
}

/// Far-future outliers: mostly near-term schedules, but one in four lands
/// up to 2^45 ns ahead — beyond the default wheel's ~2 ms horizon, let
/// alone the tiny test wheels — forcing constant overflow-heap traffic and
/// (on pops past the near-term events) horizon-crossing refills.
fn outlier_script(ops: usize, seed: u64) -> Vec<Op> {
    let mut rng = Xoshiro256StarStar::new(seed);
    (0..ops)
        .map(|_| match rng.next_u64() % 8 {
            0..=3 => Op::Schedule(rng.next_u64() % 2_000),
            4 | 5 => Op::Pop,
            _ => Op::Schedule(rng.next_u64() % (1 << 45)),
        })
        .collect()
}

/// The simulator's shape: a few seed events, then every pop schedules one
/// or two events 12 ns to 2.2 µs after the popped time (a serialization or a
/// propagation ahead). Every pop schedules, so the queue never drains.
fn forward_script(ops: usize, seed: u64) -> Vec<Op> {
    let mut rng = Xoshiro256StarStar::new(seed);
    let mut script: Vec<Op> = (0..16)
        .map(|_| Op::Schedule(rng.next_u64() % 1_000))
        .collect();
    while script.len() < ops {
        script.push(Op::Pop);
        for _ in 0..1 + rng.next_u64() % 2 {
            script.push(Op::Schedule(12 + rng.next_u64() % 2_189));
        }
    }
    script
}

#[test]
fn simulator_shaped_forward_schedule_matches_oracle() {
    for seed in 0..4u64 {
        let script = forward_script(3_000, 0xF0F0 + seed);
        assert_all_geometries_match_oracle(&script, &format!("forward seed {seed}"));
    }
}

#[test]
fn chaos_mix_matches_sorted_vec_oracle() {
    for seed in 0..8u64 {
        let script = chaos_script(2_000, 0x0E7E_0000 + seed, 500);
        assert_all_geometries_match_oracle(&script, &format!("chaos seed {seed}"));
    }
}

#[test]
fn all_ties_fire_in_insertion_order() {
    // Degenerate case: every event at the same instant.
    let script = chaos_script(1_000, 7, 1);
    assert_all_geometries_match_oracle(&script, "all-ties");
}

#[test]
fn equal_timestamp_bursts_match_oracle() {
    for seed in 0..4u64 {
        let script = burst_script(400, 0xB0B0 + seed);
        assert_all_geometries_match_oracle(&script, &format!("burst seed {seed}"));
    }
}

#[test]
fn far_future_outliers_match_oracle() {
    for seed in 0..4u64 {
        let script = outlier_script(1_500, 0xFAFA + seed);
        assert_all_geometries_match_oracle(&script, &format!("outlier seed {seed}"));
    }
}

proptest! {
    #[test]
    fn random_shapes_match_oracle(
        ops in 1usize..600,
        seed in any::<u64>(),
        max_time in 1u64..10_000
    ) {
        let script = chaos_script(ops, seed, max_time);
        assert_all_geometries_match_oracle(&script, "proptest chaos");
    }

    #[test]
    fn random_outlier_shapes_match_oracle(
        ops in 1usize..400,
        seed in any::<u64>(),
    ) {
        let script = outlier_script(ops, seed);
        assert_all_geometries_match_oracle(&script, "proptest outlier");
    }
}
