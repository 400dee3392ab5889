//! Host-speed pacing of measured times.
//!
//! The host is shared with other tenants, who slow this process's code
//! by up to 75% in phases from a fraction of a second to minutes, longer
//! than a run. The median over a run's repeats cannot remove a phase that
//! covers the whole run, so raw host times of the same code differ by
//! that much from run to run.
//!
//! A fixed reference computation, timed right after each measured call,
//! slows down with it. A paced time is the call's host time scaled by
//! [`NOMINAL_UNIT_MS`] over the reference's measured milliseconds per
//! unit: the time the call would take on a host on which one reference
//! unit takes [`NOMINAL_UNIT_MS`]. The reference belongs to the benchmark
//! and never changes with the program, so a change to the program moves
//! paced times as it moves host times.
//!
//! Over the rounds of six runs of each workload, the log of a round's
//! host time against the log of its mean unit time had r² 0.92
//! (`chaos-campaign`), 0.98 (`room-drill`) and 0.79 (`milp-exact`).
//! Across those runs the
//! spread of the median round time fell from 0.10 to 0.03, 0.31 to
//! 0.08 and 0.07 to 0.05. A heap over a 32 KB table (r² 0.50–0.84) and
//! a 2 MB pointer chase (r² 0.22–0.58) tracked the host worse.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;

use crate::clock::{timed, Stopwatch};

/// Milliseconds of one reference unit at the speed paced times are
/// quoted at. The unit measured 0.22–0.36 ms on a 2-vCPU Xeon guest
/// (Sapphire Rapids class), 0.29 ms typically.
pub const NOMINAL_UNIT_MS: f64 = 0.25;
/// Reference time spent per millisecond of measured time.
const SHARE: f64 = 0.15;
/// At most this many units follow one measured call.
const MAX_UNITS: u64 = 64;

/// One unit of reference work: a miniature event queue. Boxed records
/// are scheduled into a binary heap under xorshift keys and executed,
/// and freed, in key order, about the mix of allocation, heap traffic and
/// branches of the simulator and the solver. The work depends only on
/// `salt`, never on the program.
fn unit(salt: u64) -> u64 {
    const EVENTS: u64 = 3000;
    const PENDING: usize = 256;
    let mut slots: Vec<Option<Box<[u64; 6]>>> = Vec::with_capacity(PENDING);
    let mut free = Vec::with_capacity(PENDING);
    let mut queue = BinaryHeap::with_capacity(PENDING);
    let mut x = salt | 1;
    let mut acc = 0u64;
    for i in 0..EVENTS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let record = Some(Box::new([x, i, x ^ i, acc, 0, 0]));
        let slot = match free.pop() {
            Some(slot) => {
                slots[slot] = record;
                slot
            }
            None => {
                slots.push(record);
                slots.len() - 1
            }
        };
        queue.push(Reverse((x % 1_000_003, slot)));
        if queue.len() >= PENDING {
            if let Some(Reverse((key, slot))) = queue.pop() {
                if let Some(r) = slots[slot].take() {
                    acc = acc.wrapping_add(key ^ r[1] ^ r[3]);
                }
                free.push(slot);
            }
        }
    }
    acc
}

/// Host milliseconds per unit over `units` reference units run now.
fn unit_ms(units: u64) -> f64 {
    let units = units.max(1);
    let sw = Stopwatch::start();
    let mut acc = 0u64;
    for i in 0..units {
        acc ^= unit(black_box(i));
    }
    black_box(acc);
    sw.ms() / units as f64
}

/// Paces `host_ms`, the host time of a call that has just returned, by
/// a reference block of about [`SHARE`] of its length.
fn pace(host_ms: f64) -> f64 {
    let units = ((host_ms * SHARE / NOMINAL_UNIT_MS).ceil() as u64).clamp(1, MAX_UNITS);
    host_ms * NOMINAL_UNIT_MS / unit_ms(units)
}

/// Runs `f` once and returns its result with its paced milliseconds.
/// The reference block runs after `f` and is not part of the time.
pub fn paced<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let (out, ms) = timed(f);
    (out, pace(ms))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_is_fixed_work() {
        assert_eq!(unit(3), unit(3));
        assert_ne!(unit(3), unit(4));
    }

    #[test]
    fn pacing_keeps_a_time_positive_and_finite() {
        let (_, ms) = paced(|| unit(1));
        assert!(ms.is_finite() && ms > 0.0);
    }
}
