//! `dse --map-search`: joint mapping search over a sweep's points.
//!
//! The timing stack evaluates every point under the paper's fixed
//! weight-stationary tiling ([`ngpc::FixedTiling`]). This module runs
//! [`ng_timeloop::best_mapping`] over every distinct `(MAC array, MLP
//! layer shape)` problem a sweep visits, feeds the winners back through
//! [`ngpc::EmulationContext::eval_with_mapping`], and reports the
//! fixed-vs-searched comparison per point. Searches are memoized per
//! run, so each mapspace enumeration runs once per distinct problem —
//! about 54 searches and 0.05 ms on the mac-arrays preset, cheaper
//! than any on-disk memo would be to read back.
//!
//! The annotation is a *side table*: [`annotate`] never mutates the
//! evaluated points, so everything downstream — the frontier, the
//! plain CSV — is byte-identical with `--map-search` off.
//!
//! This is also the crate's Fig. 13 cross-validation seam: `ngpc`'s
//! tile model and `ng-timeloop`'s mapping evaluation are independent
//! implementations of the same machine, and [`MapSearchOutcome::
//! max_disagreement`] measures how far apart they land (the paper
//! reports ~7 % agreement against real Timeloop/Accelergy;
//! `--check-map-agreement` gates CI on [`AGREEMENT_BAND`]).

use std::collections::HashMap;

use ngpc::{mlp_layer_shapes, mlp_query_cycles, FixedTiling, MappingTable};

use crate::obs_counters;
use crate::sweep::EvaluatedPoint;

/// Queries per searched problem: each layer is searched as a GEMM over
/// this many queries, so per-query cycles are `cycles /
/// MAP_SEARCH_BATCH`, exact because every cycle count is a multiple of
/// the batch.
pub const MAP_SEARCH_BATCH: u64 = 4096;

/// The relative agreement band between `ngpc`'s fixed tile model and
/// `ng-timeloop`'s mapping evaluation that `--check-map-agreement`
/// enforces — the paper's Fig. 13 reports its MLP-engine model within
/// ~7 % of real Timeloop/Accelergy.
pub const AGREEMENT_BAND: f64 = 0.07;

/// Mapping-derived metrics for one evaluated point — the side table
/// `--map-search` joins onto emitters and reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MapMetrics {
    /// Per-query MLP cycles under the paper's fixed tiling.
    pub fixed_mlp_cycles: f64,
    /// Per-query MLP cycles under the searched best mappings.
    pub searched_mlp_cycles: f64,
    /// Per-query MLP energy of the searched mappings, microjoules.
    pub energy_uj: f64,
    /// End-to-end speedup re-evaluated under the searched mappings.
    pub speedup: f64,
}

impl MapMetrics {
    /// Fixed-over-searched MLP cycle ratio: how much faster the
    /// searched schedule retires queries (1.0 = the fixed dataflow is
    /// already optimal, which is exactly what the cross-validation
    /// expects on power-of-two arrays).
    pub fn map_speedup(&self) -> f64 {
        self.fixed_mlp_cycles / self.searched_mlp_cycles
    }

    /// Relative disagreement between the two models on this point:
    /// `|searched/fixed - 1|`. Since the full-array tile is always in
    /// the mapspace, a searched schedule can only tie or beat the fixed
    /// one — any gap in either direction is model disagreement.
    pub fn disagreement(&self) -> f64 {
        (self.searched_mlp_cycles / self.fixed_mlp_cycles - 1.0).abs()
    }
}

/// The result of annotating one point set.
#[derive(Debug, Clone, PartialEq)]
pub struct MapSearchOutcome {
    /// One metrics row per input point, in input order.
    pub metrics: Vec<MapMetrics>,
    /// Mapping searches actually run — one per *distinct* `(MAC
    /// array, layer shape)` problem not already in the memo.
    pub evals: u64,
    /// Lookups served without a search, from an earlier point in the
    /// same run.
    pub memo_hits: u64,
}

impl MapSearchOutcome {
    /// The largest relative disagreement between the fixed tile model
    /// and the searched timeloop evaluation across all points (0.0 on
    /// an empty set).
    pub fn max_disagreement(&self) -> f64 {
        self.metrics.iter().map(MapMetrics::disagreement).fold(0.0, f64::max)
    }

    /// Points whose searched mapping strictly beats the fixed tiling
    /// on cycles, and the best ratio seen: `(count, best_speedup)`.
    pub fn beats_fixed(&self) -> (usize, f64) {
        let count = self.metrics.iter().filter(|m| m.map_speedup() > 1.0 + 1e-12).count();
        let best = self.metrics.iter().map(MapMetrics::map_speedup).fold(1.0, f64::max);
        (count, best)
    }

    /// One summary line for reports: agreement, band verdict, and
    /// where (if anywhere) the search beat the paper's dataflow.
    pub fn headline(&self) -> String {
        let (beats, best) = self.beats_fixed();
        format!(
            "map-search: {} search(es), {} memo hit(s); timeloop-vs-ngpc max disagreement \
             {:.2}% (band {:.0}%); searched mapping beats fixed on {beats}/{} point(s) \
             (best {best:.3}x)",
            self.evals,
            self.memo_hits,
            self.max_disagreement() * 100.0,
            AGREEMENT_BAND * 100.0,
            self.metrics.len(),
        )
    }
}

/// Annotate evaluated points with mapping-search metrics: per point,
/// search (or recall) the best mapping of every MLP layer shape on its
/// MAC array, build a [`MappingTable`], and re-evaluate the point under
/// it.
pub fn annotate(points: &[EvaluatedPoint]) -> MapSearchOutcome {
    let _span = ng_obs::span("mapsearch.annotate");
    // (MAC rows, MAC cols, layer rows, layer cols) -> (total cycles,
    // total energy in µJ) at MAP_SEARCH_BATCH queries.
    let mut memo: HashMap<(u32, u32, usize, usize), (u64, f64)> = HashMap::new();
    let (mut evals, mut memo_hits) = (0u64, 0u64);
    let mut ctx = ngpc::EmulationContext::new();
    let metrics = points
        .iter()
        .map(|p| {
            let input = p.point.emulator_input();
            let nfp = &input.nfp;
            let mut table = MappingTable::new();
            let mut energy_uj = 0.0;
            for (rows, cols) in mlp_layer_shapes(input.app, input.encoding) {
                let key = (nfp.mac_rows, nfp.mac_cols, rows, cols);
                let (cycles, energy) = match memo.get(&key) {
                    Some(&found) => {
                        memo_hits += 1;
                        found
                    }
                    None => {
                        let (problem, arch) =
                            ng_timeloop::layer_problem(nfp, rows, cols, MAP_SEARCH_BATCH);
                        let result = ng_timeloop::best_mapping(
                            &problem,
                            &arch,
                            &ng_timeloop::EnergyTable::default(),
                        );
                        evals += 1;
                        let found = (result.cost.cycles, result.energy_uj);
                        memo.insert(key, found);
                        found
                    }
                };
                // Per-query cycles are exact: every cycle count is
                // `tiles * MAP_SEARCH_BATCH`.
                table.set(rows, cols, cycles as f64 / MAP_SEARCH_BATCH as f64);
                energy_uj += energy / MAP_SEARCH_BATCH as f64;
            }
            let fixed_mlp_cycles = mlp_query_cycles(input.app, input.encoding, nfp, &FixedTiling);
            let searched_mlp_cycles = mlp_query_cycles(input.app, input.encoding, nfp, &table);
            let searched = ctx.eval_with_mapping(&input, &table);
            MapMetrics {
                fixed_mlp_cycles,
                searched_mlp_cycles,
                energy_uj,
                speedup: searched.speedup,
            }
        })
        .collect();
    if evals > 0 {
        obs_counters::mapsearch_evals().add(evals);
    }
    if memo_hits > 0 {
        obs_counters::mapsearch_memo_hits().add(memo_hits);
    }
    MapSearchOutcome { metrics, evals, memo_hits }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SweepSpec;
    use crate::sweep::SweepEngine;

    #[test]
    fn annotation_agrees_with_the_tile_model_and_never_loses() {
        let outcome = SweepEngine::new().run(&SweepSpec::quick()).unwrap();
        let annotated = annotate(&outcome.points);
        assert_eq!(annotated.metrics.len(), outcome.points.len());
        // Repeats within the run hit the in-run memo — only distinct
        // (arch, layer) problems are searched.
        assert!(annotated.evals > 0);
        assert!(annotated.memo_hits > 0, "quick preset repeats layer shapes across points");
        assert!(
            annotated.max_disagreement() <= AGREEMENT_BAND,
            "cross-validation outside the band: {}",
            annotated.max_disagreement()
        );
        for (m, p) in annotated.metrics.iter().zip(&outcome.points) {
            // The full-array tile is always in the mapspace, so the
            // search can only tie or beat the fixed schedule.
            assert!(m.searched_mlp_cycles <= m.fixed_mlp_cycles + 1e-9, "{m:?}");
            assert!(m.speedup >= p.speedup * (1.0 - 1e-9), "{m:?} vs {}", p.speedup);
            assert!(m.energy_uj > 0.0);
        }
    }

    #[test]
    fn searched_speedup_is_exact_under_fixed_equivalence() {
        // On power-of-two arrays the searched mapping ties the fixed
        // tiling bit-for-bit, so re-evaluation under it reproduces the
        // point's speedup exactly — the invariant that keeps
        // `--map-search` from perturbing the frontier.
        let outcome = SweepEngine::new().run(&SweepSpec::quick()).unwrap();
        let annotated = annotate(&outcome.points);
        for (m, p) in annotated.metrics.iter().zip(&outcome.points) {
            if m.searched_mlp_cycles == m.fixed_mlp_cycles {
                assert_eq!(m.speedup, p.speedup, "tied mapping must reproduce the point");
            }
        }
    }
}
