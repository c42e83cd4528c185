//! The machine's slowdown, measured with the reference twin.
//!
//! Host time on a shared machine switches between a fast and a slow
//! regime that other tenants cause, and a slow stretch can outlast a
//! whole run. The twin (frozen copies of topology, sim and core) runs
//! beside the live crates, interleaved piece by piece, so it sees the same
//! regime. Its per-piece-fastest sum divided by what it took on the
//! reference machine at its fastest is the run's slowdown; the end-to-end
//! host times are the live times divided by it, in seconds of the
//! reference machine. See `perfbench/README.md`, "Reference twin".

use crate::measure::Pieces;
use crate::report::Checks;
use crate::twin::point::{points, Fixture, Outcome, Point};

/// Twin per-piece-fastest sums on the reference machine (2-vCPU Intel
/// Xeon VM, 2.0 GHz) at the fastest it ran over several minutes: all
/// `paper-load` pieces and their set-up, and the probe pieces the other
/// workloads interleave. They fix the unit of the end-to-end times, so
/// they change only when the twin is replaced.
pub const PAPER_LOAD_S: f64 = 1.97;
pub const PAPER_LOAD_SETUP_S: f64 = 0.145;
pub const PROBE_S: f64 = 0.34;

/// Slowdown of the machine during a run: twin time over reference time,
/// for whole pieces and for their set-up.
#[derive(Debug, Clone, Copy)]
pub struct Slowdown {
    pub wall: f64,
    pub setup: f64,
    /// The twin's per-piece-fastest sum, in seconds.
    pub twin_s: f64,
}

impl Slowdown {
    /// From the twin's pieces and their reference sums; without a set-up
    /// reference, set-up is taken to slow down as whole pieces do.
    pub fn of(twin: &Pieces, ref_wall: f64, ref_setup: Option<f64>) -> Self {
        let (setup, wall) = twin.best();
        Slowdown {
            wall: wall / ref_wall,
            setup: ref_setup.map_or(wall / ref_wall, |r| setup / r),
            twin_s: wall,
        }
    }
}

/// Load points the probe runs: every scheme at degree 8 and load 0.1 on
/// both topologies ([`PROBE_S`] at the reference machine's fastest).
fn probe_points() -> Vec<Point> {
    points()
        .into_iter()
        .filter(|p| p.degree == 8 && p.load == 0.1)
        .collect()
}

/// The twin's probe for workloads that have no twin of their own: a few
/// fixed load points run between the workload's pieces.
pub struct Probe {
    fixture: Fixture,
    points: Vec<Point>,
    pub pieces: Pieces,
    first: Vec<Option<Outcome>>,
}

impl Probe {
    pub fn new() -> Result<Self, String> {
        let points = probe_points();
        let labels = points
            .iter()
            .map(|p| format!("twin {}", p.label()))
            .collect();
        Ok(Probe {
            fixture: Fixture::new()?,
            first: vec![None; points.len()],
            points,
            pieces: Pieces::new(labels),
        })
    }

    /// Run the first half of the probe, before pass `pass`'s main piece.
    pub fn run_before(&mut self, pass: usize, checks: &mut Checks) {
        self.run(pass, 0, self.points.len() / 2, checks);
    }

    /// Run the second half of the probe, after pass `pass`'s main piece.
    pub fn run_after(&mut self, pass: usize, checks: &mut Checks) {
        self.run(pass, self.points.len() / 2, self.points.len(), checks);
    }

    /// Run probe points `from..to`; each must give the outcome it gave the
    /// first time.
    fn run(&mut self, pass: usize, from: usize, to: usize, checks: &mut Checks) {
        for k in from..to {
            let p = self.points[k];
            match self.fixture.run(&p, 0) {
                Ok((o, setup, total)) => {
                    self.pieces.record(pass, k, setup, total);
                    let want = *self.first[k].get_or_insert(o);
                    checks.expect(&format!("twin {}", p.label()), &o, &want);
                }
                Err(e) => checks.error(format!("twin {}: {e}", p.label())),
            }
        }
    }

    pub fn slowdown(&self) -> Slowdown {
        Slowdown::of(&self.pieces, PROBE_S, None)
    }
}
