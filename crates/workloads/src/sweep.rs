//! Parameter sweeps over (scheme × parameter × topology) grids, and the
//! worker pool the campaign runner spreads independent units over.
//!
//! Each simulation is single-threaded and deterministic. Results are
//! identical whatever the worker count: per-point RNG streams are derived
//! by hashing `(seed, point, topology)` — never from scheduling order.

use crate::scenario::WorkloadError;
use crate::single::mean_single_latency;
use irrnet_core::rng;
use irrnet_core::SchemeId;
use irrnet_sim::SimConfig;
use irrnet_topology::Network;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Run `f` over `tasks` on up to `workers` threads (`None` = one per
/// core), returning results in task order.
///
/// Workers pull indices from a shared atomic queue and accumulate
/// `(index, result)` pairs in a thread-local buffer — one allocation per
/// worker instead of the per-slot `Mutex<Option<R>>` this used to take —
/// and the buffers are stitched back into task order after the scope
/// joins.
pub fn par_run_with<T, R, F>(tasks: &[T], workers: Option<usize>, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = tasks.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers
        .filter(|&w| w > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
        })
        .min(n);
    if workers == 1 {
        return tasks.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut buf: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        buf.push((i, f(&tasks[i])));
                    }
                    buf
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(buf) => {
                    for (i, r) in buf {
                        slots[i] = Some(r);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("workers cover every index"))
        .collect()
}

/// One grid point of a single-multicast sweep.
#[derive(Debug, Clone)]
pub struct SinglePoint {
    /// Scheme under test.
    pub scheme: SchemeId,
    /// Multicast degree (x-axis of Figs. 6–8).
    pub degree: usize,
    /// Message length in flits.
    pub message_flits: u32,
    /// Simulator configuration (carries R, overheads, packet size).
    pub sim: SimConfig,
}

/// Averaged result for one grid point.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Scheme under test.
    pub scheme: SchemeId,
    /// Multicast degree.
    pub degree: usize,
    /// Mean latency in cycles across topologies × trials.
    pub mean_latency: f64,
}

/// The RNG stream seed for grid point `pi` on topology `ti` of a sweep
/// with base seed `seed`: a splitmix64 hash of the triple. (The previous
/// `seed ^ (pi << 32) ^ ti` xor-mixing made streams for consecutive
/// indices trivially correlated and collided across panels.)
#[inline]
pub fn point_seed(seed: u64, pi: usize, ti: usize) -> u64 {
    rng::hash3(seed, pi as u64, ti as u64)
}

/// Run a single-multicast sweep: for every point, average
/// `trials_per_topo` random multicasts on every network. Serial:
/// parallelism lives one level up (the campaign's unit pool), and the
/// networks come out of a shared cache.
pub fn single_sweep_serial(
    nets: &[&Network],
    points: &[SinglePoint],
    trials_per_topo: usize,
    seed: u64,
) -> Result<Vec<SweepRow>, WorkloadError> {
    let mut rows = Vec::with_capacity(points.len());
    for (pi, p) in points.iter().enumerate() {
        let mut sum = 0.0;
        for (ti, net) in nets.iter().enumerate() {
            sum += mean_single_latency(
                net,
                &p.sim,
                p.scheme,
                p.degree,
                p.message_flits,
                trials_per_topo,
                point_seed(seed, pi, ti),
            )?;
        }
        let mean_latency = sum / nets.len() as f64;
        rows.push(SweepRow { scheme: p.scheme, degree: p.degree, mean_latency });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use irrnet_core::SchemeId;
    use irrnet_topology::{gen, RandomTopologyConfig};

    #[test]
    fn par_run_preserves_order() {
        let tasks: Vec<usize> = (0..100).collect();
        let out = par_run_with(&tasks, None, |&t| t * 2);
        assert_eq!(out, (0..100).map(|t| t * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_run_empty() {
        let tasks: Vec<usize> = Vec::new();
        assert!(par_run_with(&tasks, None, |&t| t).is_empty());
    }

    #[test]
    fn par_run_with_any_worker_count_matches_serial() {
        let tasks: Vec<usize> = (0..57).collect();
        let expect: Vec<usize> = tasks.iter().map(|&t| t * t + 1).collect();
        for workers in [Some(1), Some(2), Some(3), Some(16), None] {
            assert_eq!(par_run_with(&tasks, workers, |&t| t * t + 1), expect, "{workers:?}");
        }
    }

    #[test]
    fn point_seeds_are_collision_free_on_small_grids() {
        let mut seen = std::collections::HashSet::new();
        for pi in 0..32 {
            for ti in 0..16 {
                assert!(seen.insert(point_seed(0xBEEF, pi, ti)));
            }
        }
    }

    #[test]
    fn small_sweep_produces_sane_rows() {
        let nets: Vec<Network> = [0, 1]
            .iter()
            .map(|&seed| {
                let cfg = RandomTopologyConfig { seed, ..RandomTopologyConfig::paper_default(0) };
                Network::analyze(gen::generate(&cfg).unwrap()).unwrap()
            })
            .collect();
        let point = |degree| SinglePoint {
            scheme: SchemeId::TREE,
            degree,
            message_flits: 128,
            sim: SimConfig::paper_default(),
        };
        let refs: Vec<&Network> = nets.iter().collect();
        let rows = single_sweep_serial(&refs, &[point(4), point(16)], 2, 99).unwrap();
        assert_eq!(rows.len(), 2);
        // More destinations can only slow a single multicast down.
        assert!(rows[1].mean_latency >= rows[0].mean_latency);
    }
}
