//! Timing from outside the crates: per-piece pass timers, an in-memory
//! span tracer, and the small statistics the report needs.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded span: a call into a layer, timed from outside.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Spans of one piece share this id (`pass * 1000 + piece`).
    pub piece: u32,
    /// Index of the enclosing span, or `NO_PARENT`.
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub const NO_PARENT: u32 = u32::MAX;

/// Span recorder. When off, `span` only calls the closure, so untraced
/// passes pay one branch per call.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    piece: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            piece: 0,
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Run `f` as piece `piece` of pass `pass`, under a root span
    /// `bench.piece` whose self time is the benchmark's own glue, and
    /// return its result and host time.
    pub fn piece<R>(
        &mut self,
        pass: usize,
        piece: usize,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, Duration) {
        assert!(
            piece < 1000,
            "piece ids hold fewer than 1000 pieces per pass"
        );
        self.piece = (pass * 1000 + piece) as u32;
        let t0 = Instant::now();
        let r = self.span("bench.piece", f);
        (r, t0.elapsed())
    }

    #[inline]
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            piece: self.piece,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        r
    }

    /// Self time (span duration minus the time its children cover), in
    /// seconds, summed by span name over the spans of the given pieces.
    pub fn self_times(&self, pieces: impl Fn(u32) -> bool) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if pieces(s.piece) {
                let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
                *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
            }
        }
        out
    }

    /// Total duration, in seconds, of the spans named `name` in the given
    /// pieces (children included).
    pub fn inclusive(&self, name: &str, pieces: impl Fn(u32) -> bool) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && pieces(s.piece))
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Tab-separated dump: index, name, piece, parent, start and end in
    /// nanoseconds since the tracer was created.
    pub fn dump(&self) -> String {
        let mut out = String::from("# idx\tname\tpiece\tparent\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                s.parent as i64
            };
            out.push_str(&format!(
                "{i}\t{}\t{}\t{parent}\t{}\t{}\n",
                s.name, s.piece, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

/// Host times of each piece in each pass.
pub struct Pieces {
    pub labels: Vec<String>,
    /// `[piece]` -> `(pass, setup seconds, total seconds)`.
    times: Vec<Vec<(usize, f64, f64)>>,
}

impl Pieces {
    pub fn new(labels: Vec<String>) -> Self {
        let n = labels.len();
        Pieces {
            labels,
            times: vec![Vec::new(); n],
        }
    }

    /// Index of the piece labelled `label`, added if new.
    pub fn index(&mut self, label: &str) -> usize {
        match self.labels.iter().position(|l| l == label) {
            Some(i) => i,
            None => {
                self.labels.push(label.to_string());
                self.times.push(Vec::new());
                self.labels.len() - 1
            }
        }
    }

    pub fn record(&mut self, pass: usize, piece: usize, setup: Duration, total: Duration) {
        self.times[piece].push((pass, setup.as_secs_f64(), total.as_secs_f64()));
    }

    /// Sum over pieces of each piece's fastest pass: `(setup, total)`.
    pub fn best(&self) -> (f64, f64) {
        let min = |v: &Vec<(usize, f64, f64)>, f: fn(&(usize, f64, f64)) -> f64| {
            v.iter().map(f).fold(f64::INFINITY, f64::min)
        };
        self.times
            .iter()
            .filter(|v| !v.is_empty())
            .fold((0.0, 0.0), |(s, t), v| {
                (s + min(v, |x| x.1), t + min(v, |x| x.2))
            })
    }

    /// Fastest pass of piece `piece`, in seconds, counting a set-up-only
    /// piece by its set-up time (0 if it never ran).
    pub fn best_spent(&self, piece: usize) -> f64 {
        let v = &self.times[piece];
        if v.is_empty() {
            0.0
        } else {
            v.iter().map(|x| x.1.max(x.2)).fold(f64::INFINITY, f64::min)
        }
    }

    /// Per-pass host time of all pieces, counting a set-up-only piece
    /// (total 0) by its set-up time.
    pub fn pass_spent(&self) -> BTreeMap<usize, f64> {
        let mut by_pass = BTreeMap::new();
        for v in &self.times {
            for &(pass, s, t) in v {
                *by_pass.entry(pass).or_insert(0.0) += s.max(t);
            }
        }
        by_pass
    }

    /// Per-pass sums `(pass, setup, total)` in pass order.
    pub fn pass_totals(&self) -> Vec<(usize, f64, f64)> {
        let mut by_pass: BTreeMap<usize, (f64, f64)> = BTreeMap::new();
        for v in &self.times {
            for &(pass, s, t) in v {
                let e = by_pass.entry(pass).or_insert((0.0, 0.0));
                e.0 += s;
                e.1 += t;
            }
        }
        by_pass.into_iter().map(|(p, (s, t))| (p, s, t)).collect()
    }
}

/// Median of a non-empty sample.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Interquartile distance as a share of the median (0 for fewer than
/// two samples), with quartiles by linear interpolation.
pub fn rel_iqr(v: &[f64]) -> f64 {
    if v.len() < 2 {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let q = |p: f64| {
        let x = p * (s.len() - 1) as f64;
        let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
        s[lo] + (s[hi] - s[lo]) * (x - lo as f64)
    };
    let m = median(&s);
    if m == 0.0 {
        0.0
    } else {
        (q(0.75) - q(0.25)) / m
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|v| v.parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs passes until the time budget is spent. `pass` gets the pass index
/// and whether the pass is traced; in trace mode passes alternate
/// untraced, traced, so both sets see the same machine state.
pub fn run_passes(budget: Duration, trace_mode: bool, mut pass: impl FnMut(usize, bool)) -> usize {
    let min_passes = if trace_mode { 4 } else { 3 };
    let start = Instant::now();
    let mut k = 0;
    loop {
        let t = Instant::now();
        pass(k, trace_mode && k % 2 == 1);
        k += 1;
        let last = t.elapsed();
        // Stop when the next pass would end past the budget.
        if k >= min_passes && start.elapsed() + last > budget {
            break;
        }
    }
    k
}
