//! Host-speed calibration of the batch workloads.
//!
//! The benchmark shares its cores with other tenants, and the speed they
//! leave it drifts by about 30 % over minutes. A fixed kernel that calls
//! nothing in hypart is timed before every start of a timed pass (and
//! before every instance of a set-up). A pass's time, divided by the
//! kernel's median time in that pass and multiplied by the kernel's
//! reference time, is the pass's time on a host of reference speed. A
//! change to hypart moves the pass and not the kernel, so the scaled time
//! still shows it; a change in host speed moves both, and the ratio
//! cancels it. `serve_mixed` is not scaled: its time is mostly protocol
//! waits, which CPU speed does not scale.
//!
//! The kernel is random reads and writes in a 512 KiB table with
//! data-dependent branches, close to the gain-bucket and incidence walks
//! the partitioners spend their time in, and it fits the per-core L2 as
//! the ibm01 instances do.

use std::hint::black_box;
use std::time::Instant;

use crate::{median, ms};

/// Kernel time on the host the benchmark was defined on (Intel Xeon,
/// 2 cores, 2 MiB L2 per core), in ms. Scaled times are in the
/// seconds of that host; only their ratios between runs matter.
pub const REFERENCE_MS: f64 = 1.6;
/// Table entries: 512 KiB of `u32`.
const TABLE: usize = 1 << 17;
/// Kernel steps: about 1.6 ms on the reference host.
const STEPS: usize = 400_000;

fn kernel(table: &mut [u32], mut x: u32) -> u32 {
    let mask = table.len() - 1;
    let mut acc = 0u32;
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        let i = x as usize & mask;
        let v = table[i];
        if v & 1 == 0 {
            acc = acc.wrapping_add(v);
        } else {
            acc ^= v.rotate_left(3);
        }
        table[i] = v.wrapping_mul(2_654_435_761).wrapping_add(acc);
    }
    acc
}

/// Host-speed meter: the caller ticks it between the operations it times,
/// so its ticks sample the host's speed all through the timed work.
pub struct Meter {
    table: Vec<u32>,
    ticks: Vec<f64>,
}

impl Meter {
    pub fn new() -> Meter {
        Meter {
            table: vec![1u32; TABLE],
            ticks: Vec::new(),
        }
    }

    /// Runs the kernel once and returns its time in ms, which the caller
    /// leaves out of the time it measures.
    pub fn tick(&mut self) -> f64 {
        let t = Instant::now();
        black_box(kernel(
            black_box(&mut self.table),
            0x9E37_79B9 ^ self.ticks.len() as u32,
        ));
        let elapsed = ms(t.elapsed());
        self.ticks.push(elapsed);
        elapsed
    }

    /// Factor that turns the times measured between the ticks into
    /// reference-host time.
    pub fn scale(&self) -> f64 {
        REFERENCE_MS / median(&self.ticks)
    }
}
