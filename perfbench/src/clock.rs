//! Host time that survives a shared host's drift.
//!
//! On the shared 2-vCPU host this benchmark was tuned on, other tenants'
//! memory traffic slows the simulator by up to 2x for stretches of seconds
//! to minutes, long enough to cover a whole run. A compute-only loop barely
//! notices (about 10%), but a loop of random read-modify-writes over a
//! 16 MB table slows down with the simulator. So each cell's time is divided
//! by the time of that reference loop measured right after it (at most
//! `REF_EVERY` later) and multiplied by the loop's time on an unloaded host:
//! the result is in seconds at the unloaded host's speed. Per cell, the
//! benchmark reports the median of these samples over the timed rounds.

use std::time::{Duration, Instant};

/// Table slots of the reference loop (16 MB of `u64`).
const REF_SLOTS: usize = 1 << 21;
/// Read-modify-writes per reference sample (about 5 ms).
const REF_OPS: u64 = 300_000;
/// The reference loop's time on the unloaded 2-vCPU host it was tuned on.
pub const REF_NOMINAL_S: f64 = 0.005;
/// Longest stretch of cell samples one reference sample scales.
const REF_EVERY: Duration = Duration::from_millis(100);

/// The reference loop.
struct Reference {
    table: Vec<u64>,
    x: u64,
}

impl Reference {
    fn new() -> Reference {
        let mut r = Reference {
            table: vec![0; REF_SLOTS],
            x: 0x9E37_79B9_7F4A_7C15,
        };
        // Fault the table in before the first timed sample.
        r.table.fill(1);
        r.time();
        r
    }

    /// Times one sample of `REF_OPS` dependent random updates, in seconds.
    fn time(&mut self) -> f64 {
        let t = Instant::now();
        let mask = REF_SLOTS - 1;
        for i in 0..REF_OPS {
            self.x ^= self.x << 13;
            self.x ^= self.x >> 7;
            self.x ^= self.x << 17;
            let a = self.x as usize & mask;
            self.table[a] = self.table[a].wrapping_add(i) ^ self.table[(a * 31 + 7) & mask];
        }
        std::hint::black_box(&self.table);
        t.elapsed().as_secs_f64()
    }
}

/// Scaled host-time samples of every cell.
pub struct Clock {
    reference: Reference,
    last: Instant,
    /// Cell samples not yet scaled: (cell, setup, wall).
    pending: Vec<(usize, Duration, Duration)>,
    setup: Vec<Vec<f64>>,
    wall: Vec<Vec<f64>>,
}

fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

impl Clock {
    pub fn new(cells: usize) -> Clock {
        Clock {
            reference: Reference::new(),
            last: Instant::now(),
            pending: Vec::new(),
            setup: vec![Vec::new(); cells],
            wall: vec![Vec::new(); cells],
        }
    }

    /// Records one cell's raw times; scales the pending ones when due.
    pub fn record(&mut self, cell: usize, setup: Duration, wall: Duration) {
        self.pending.push((cell, setup, wall));
        if self.last.elapsed() >= REF_EVERY {
            self.flush();
        }
    }

    /// Scales every pending sample by a fresh reference sample.
    pub fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let scale = REF_NOMINAL_S / self.reference.time();
        for (c, s, w) in self.pending.drain(..) {
            self.setup[c].push(s.as_secs_f64() * scale);
            self.wall[c].push(w.as_secs_f64() * scale);
        }
        self.last = Instant::now();
    }

    /// Setup and wall seconds: the sum over cells of each cell's median.
    pub fn totals(&self) -> (f64, f64) {
        let sum = |v: &[Vec<f64>]| v.iter().map(|s| median(s)).sum();
        (sum(&self.setup), sum(&self.wall))
    }
}
