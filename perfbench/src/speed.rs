//! Machine-speed calibration.
//!
//! The speed of a shared virtual machine moves by tens of percent within
//! seconds and for minutes at a time, and CPU time moves with it: the
//! other tenants take the host core's caches and execution units, not
//! only its time slices. A run therefore times fixed kernels of the
//! benchmark's own, which use only the standard library, between its
//! measurements, and reports every time scaled to the speed at which a
//! kernel takes its reference time. The program under test never runs
//! inside a kernel, so a change to the program cannot move the scale; a
//! change of machine speed moves the kernel and the program together and
//! largely cancels out.
//!
//! Code paths differ in how much a busy host slows them, so a run times
//! two kernels and scales each time by the one that slows like the
//! operation measured: bulk stages, and a batch run between them, by
//! [`Kernel::Data`]; the per-probe path alone (warm collection rounds,
//! per-probe and per-event times) by [`Kernel::Code`]. On a 2-vCPU VM:
//!
//! - [`Kernel::Data`] slowed 1.32-1.42x from the fastest to the slowest
//!   quartile of an Internet2 round, over 40 s of interleaved samples.
//!   Over 70 s of cold ISP passes, which the routing build dominates, it
//!   cut the spread (IQR / median) of the pass time from 0.198 to 0.115,
//!   where [`Kernel::Code`] widened it to 0.226.
//! - [`Kernel::Code`] slowed 1.68x where an Internet2 round (the probe
//!   path through `wire`, `netsim`, `probe` and `core`) slowed 1.82x; the
//!   round's time over the kernel's stayed within 4 % across 5 s windows
//!   in which the round's own time moved by 17 %. Over ten runs of
//!   `i2-rounds` while the kernel's median moved from 1.9 to 3.7 ms, the
//!   spread of `probes_per_s` was 0.034 scaled by it, and 0.25 scaled by
//!   [`Kernel::Data`].

use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::fmt::Write;
use std::hint::black_box;
use std::time::Instant;

use crate::common::median;

/// A calibration kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// Data structures: ordered-map inserts and lookups, sorting, many
    /// small allocations, text formatting.
    Data,
    /// Many different code paths per item: float formatting and parsing,
    /// case mapping, hashing, a heap, splitting and sorting with closures.
    Code,
}

impl Kernel {
    /// The kernel's time at the reference speed, in milliseconds. Scaled
    /// times read as if measured on a machine where the kernel takes
    /// this long.
    fn reference_ms(self) -> f64 {
        match self {
            Kernel::Data => 8.0,
            Kernel::Code => 3.0,
        }
    }

    fn run(self) -> u64 {
        match self {
            Kernel::Data => data_kernel(),
            Kernel::Code => code_kernel(),
        }
    }
}

/// Kernel calls per sample; the sample is their median.
const CALLS: usize = 3;

fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

fn data_kernel() -> u64 {
    let mut next = xorshift(0x9E37_79B9_7F4A_7C15);
    let mut acc = 0u64;
    let mut tree = BTreeMap::new();
    for _ in 0..20_000 {
        tree.insert(next() % 100_000, next());
    }
    for _ in 0..20_000 {
        if let Some(v) = tree.get(&(next() % 100_000)) {
            acc = acc.wrapping_add(*v);
        }
    }
    let mut sorted: Vec<u64> = (0..50_000).map(|_| next()).collect();
    sorted.sort_unstable();
    acc = acc.wrapping_add(sorted[sorted.len() / 2]);
    let small: Vec<Vec<u8>> =
        (0..5_000).map(|i| vec![i as u8; 16 + (next() % 64) as usize]).collect();
    acc = acc.wrapping_add(small.iter().map(|b| b.len() as u64).sum::<u64>());
    let mut text = String::new();
    for _ in 0..5_000 {
        let x = next();
        let _ = write!(text, "{}.{}.{}.{};", x as u8, (x >> 8) as u8, (x >> 16) as u8, x >> 24);
    }
    black_box(acc.wrapping_add(text.len() as u64))
}

fn code_kernel() -> u64 {
    let mut next = xorshift(0x1234_5678_9ABC_DEF1);
    let mut acc = 0u64;
    let mut groups: HashMap<String, Vec<u32>> = HashMap::new();
    let mut heap = BinaryHeap::new();
    for i in 0..3_000u32 {
        let x = next();
        let f = (x % 100_000) as f64 / 7.0;
        let line = format!("{f:.3e}|{:x}|{i}", x >> 40);
        let back: f64 = line.split('|').next().and_then(|t| t.parse().ok()).unwrap_or(0.0);
        acc = acc.wrapping_add(back as u64);
        let upper = line.to_uppercase();
        groups.entry(upper[..6].to_string()).or_default().push(i);
        heap.push((x % 1_000, i));
        if heap.len() > 64 {
            heap.pop();
        }
        let mut parts: Vec<&str> =
            line.split(|c: char| !c.is_alphanumeric()).filter(|p| !p.is_empty()).collect();
        parts.sort_by_key(|p| p.len());
        acc = acc.wrapping_add(parts.len() as u64);
    }
    let mut sizes: Vec<(usize, String)> = groups.into_iter().map(|(k, v)| (v.len(), k)).collect();
    sizes.sort();
    black_box(acc.wrapping_add(sizes.len() as u64).wrapping_add(heap.len() as u64))
}

/// The scale factors of one run, per kernel: they turn a wall time
/// measured in the run into one at the reference speed.
#[derive(Clone, Copy, Debug)]
pub struct Scales {
    /// For bulk stages: file loading, routing build, log writing and
    /// parsing, whole passes, and the batch inside a cold pass.
    pub data: f64,
    /// For the per-probe path: warm collection rounds and the per-probe
    /// and per-event times of the traced run.
    pub code: f64,
}

impl Default for Scales {
    fn default() -> Scales {
        Scales { data: 1.0, code: 1.0 }
    }
}

/// The kernel samples of one run.
#[derive(Debug, Default)]
pub struct Speed {
    data_ms: Vec<f64>,
    code_ms: Vec<f64>,
}

impl Speed {
    /// Times both kernels now and keeps the samples.
    pub fn sample(&mut self) {
        self.data_ms.push(time_ms(Kernel::Data));
        self.code_ms.push(time_ms(Kernel::Code));
    }

    /// The median time of `kernel` in the run, in milliseconds.
    pub fn kernel_ms(&self, kernel: Kernel) -> f64 {
        median(match kernel {
            Kernel::Data => &self.data_ms,
            Kernel::Code => &self.code_ms,
        })
    }

    pub fn scales(&self) -> Scales {
        let scale = |k: Kernel| k.reference_ms() / self.kernel_ms(k);
        Scales { data: scale(Kernel::Data), code: scale(Kernel::Code) }
    }

    /// The line a run prints about its machine speed.
    pub fn describe(&self) -> String {
        let s = self.scales();
        format!(
            "# machine speed: data kernel {:.3} ms (times scaled by {:.4}), code kernel {:.3} ms \
             (by {:.4})",
            self.kernel_ms(Kernel::Data),
            s.data,
            self.kernel_ms(Kernel::Code),
            s.code
        )
    }
}

/// One sample: the median of [`CALLS`] timed calls.
fn time_ms(kernel: Kernel) -> f64 {
    let calls: Vec<f64> = (0..CALLS)
        .map(|_| {
            let t0 = Instant::now();
            kernel.run();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&calls)
}
