//! A budgeted guided searcher, kept only for the benchmark's replay.
//!
//! No product path uses it: `dse` finds the Pareto frontier with the
//! exhaustive fold of [`crate::SweepEngine`], which is exact, where a
//! search returns a subset it cannot confirm, and which sweeps the
//! guided-lanes space within ~1.4 ms of a hill search's time
//! (EXPERIMENTS.md § Guided search against the exhaustive fold). `perfbench/replay` still runs
//! [`Searcher`] over the 64 seeds whose trajectories the benchmark
//! pins, so this module and its tests stay until the benchmark change
//! that drops those pins deletes them all.
//!
//! Two strategies walk the architectures of [`crate::spec::Space`]
//! (every [`SweepSpec`] axis but `apps`), each probe scored by
//! [`FactorTables::score_at`] and kept in a [`StreamingFrontier`]
//! archive; revisits are free, and the budget counts model
//! evaluations (one per app of an architecture):
//!
//! * **Hill climbing with random restarts** (the default): each restart
//!   draws a random weight vector over {log speedup, −log area, −log
//!   power} and a random start, climbs single-axis neighbour steps to
//!   a local optimum, then walks the archive's neighbourhood.
//! * **Evolutionary**: a population of axis tuples evolves by binary
//!   tournament, uniform crossover and ±1-step mutation, with archive
//!   members as elites.
//!
//! All randomness comes from one seeded [`ng_neural::math::Pcg32`], so
//! a `(spec, SearchSpec)` pair explores the same trajectory everywhere.

use std::collections::HashMap;

use ng_neural::math::Pcg32;

use crate::factors::FactorTables;
use crate::obs_counters;
use crate::pareto::{Objectives, StreamingFrontier};
use crate::spec::{ArchIdx, Space, SpecError, SweepSpec, ARCH_AXES};
use crate::sweep::ArchPoint;

/// Consecutive fruitless restarts (hill climb) or generations
/// (evolutionary) — "fruitless" meaning the archive did not change —
/// after which the search stops early, budget notwithstanding.
const CONVERGENCE_WINDOW: usize = 24;
/// Evolutionary population size.
const POPULATION: usize = 24;

/// Which guided strategy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchStrategy {
    /// Scalarised hill climbing with random restarts.
    HillClimb,
    /// Mutation/crossover over axis tuples with a dominance tournament.
    Evolutionary,
}

impl SearchStrategy {
    /// Parse a strategy name: `hill` or `evolve`, or an alias.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "hill" | "hill-climb" | "hillclimb" => Some(SearchStrategy::HillClimb),
            "evolve" | "evo" | "evolutionary" => Some(SearchStrategy::Evolutionary),
            _ => None,
        }
    }
}

/// Parameters of a guided search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchSpec {
    /// Strategy to run.
    pub strategy: SearchStrategy,
    /// Maximum *model evaluations* (design points, not
    /// architectures), at least one architecture's points (the app
    /// count; [`Searcher::run`] rejects less). Revisits are free. A budget
    /// at or above the space's point count degenerates to an exhaustive
    /// scan.
    pub budget: usize,
    /// RNG seed; equal seeds reproduce the exact trajectory.
    pub seed: u64,
}

impl SearchSpec {
    /// Default budget fraction: 5% of the space.
    pub const DEFAULT_BUDGET_FRACTION: f64 = 0.05;

    /// A search spec with the default 5%-of-space budget for `spec`,
    /// and at least one architecture's points (one per app).
    pub fn for_space(spec: &SweepSpec) -> Self {
        SearchSpec {
            budget: ((spec.point_count() as f64 * Self::DEFAULT_BUDGET_FRACTION) as usize)
                .max(spec.apps.len()),
            ..SearchSpec::default()
        }
    }
}

impl Default for SearchSpec {
    /// Hill climbing, a 4096-point budget and a fixed seed.
    fn default() -> Self {
        SearchSpec { strategy: SearchStrategy::HillClimb, budget: 4096, seed: 0x5eed_0001 }
    }
}

/// How a search executed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchStats {
    /// Architectures in the space (points / apps).
    pub space_archs: usize,
    /// Distinct architectures actually visited.
    pub archs_visited: usize,
    /// Model evaluations spent (the budgeted quantity).
    pub evaluations: usize,
    /// Whether the search degenerated to an exhaustive scan (budget at
    /// or above the space size).
    pub exhaustive: bool,
}

/// A completed guided search: the frontier of every architecture
/// visited, plus accounting.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Non-dominated architectures among those visited, ascending area.
    pub frontier: Vec<ArchPoint>,
    /// How the search executed.
    pub stats: SearchStats,
}

/// Shared search state: the factor tables, the evaluation count, the
/// visited memo, the streaming archive and the budget.
struct SearchState<'a> {
    space: Space<'a>,
    tables: FactorTables<'a>,
    /// Model evaluations performed.
    evaluations: usize,
    visited: HashMap<ArchIdx, Objectives>,
    archive: StreamingFrontier<ArchIdx>,
    archive_generation: u64,
    budget: usize,
}

impl SearchState<'_> {
    /// Whether the search has budget left for at least one more
    /// evaluation.
    fn can_afford_arch(&self) -> bool {
        self.evaluations < self.budget
    }

    /// Score (or recall) one architecture's objectives. Returns `None`
    /// only when the architecture's evaluations (one per app) do not
    /// fit the budget.
    fn eval_arch(&mut self, idx: &ArchIdx) -> Option<Objectives> {
        if let Some(hit) = self.visited.get(idx) {
            return Some(*hit);
        }
        let apps = self.space.spec.apps.len();
        if self.evaluations + apps > self.budget {
            return None;
        }
        self.evaluations += apps;
        obs_counters::eval_ticks().add(apps as u64);
        let objectives = self.tables.score_at(idx).objectives;
        self.visited.insert(*idx, objectives);
        if self.archive.insert(objectives, *idx) {
            self.archive_generation += 1;
        }
        Some(objectives)
    }

    /// Pareto local search: walk the archive's neighbourhood until no
    /// archive member has unexplored single-axis neighbours (or the
    /// budget runs out). The true frontier is overwhelmingly connected
    /// under single-axis moves, so once a climb lands on any frontier
    /// segment this walk recovers the rest of the segment — including
    /// knee points no scalarisation happens to select.
    fn explore_archive(&mut self, explored: &mut std::collections::HashSet<ArchIdx>) {
        loop {
            let next = self.archive.iter().map(|(_, idx)| *idx).find(|idx| !explored.contains(idx));
            let Some(current) = next else { return };
            explored.insert(current);
            for axis in 0..ARCH_AXES {
                for dir in [-1, 1] {
                    let Some(neighbour) = self.space.step(&current, axis, dir) else { continue };
                    if self.eval_arch(&neighbour).is_none() {
                        return; // budget exhausted
                    }
                }
            }
        }
    }
}

/// Scalarisation weights over (speedup, area, power), log-domain.
#[derive(Debug, Clone, Copy)]
struct Weights([f64; 3]);

impl Weights {
    /// Draw from the simplex with a floor, so no objective is ever
    /// entirely ignored (a zero-weight area axis would climb to the
    /// biggest cluster every time).
    fn draw(rng: &mut Pcg32) -> Weights {
        const FLOOR: f64 = 0.08;
        let raw = [rng.next_f32() as f64, rng.next_f32() as f64, rng.next_f32() as f64];
        let sum: f64 = raw.iter().sum::<f64>().max(1e-9);
        Weights([FLOOR + raw[0] / sum, FLOOR + raw[1] / sum, FLOOR + raw[2] / sum])
    }

    /// Higher is better: weighted log-speedup minus weighted log-costs.
    fn fitness(&self, o: &Objectives) -> f64 {
        self.0[0] * o.speedup.max(1e-12).ln()
            - self.0[1] * o.area_pct.max(1e-12).ln()
            - self.0[2] * o.power_pct.max(1e-12).ln()
    }
}

/// The guided searcher. It holds no state: every search starts from
/// an empty memo and archive.
#[derive(Debug, Clone, Copy, Default)]
pub struct Searcher;

impl Searcher {
    /// A searcher.
    pub fn new() -> Self {
        Searcher
    }

    /// The searcher itself: there is no point store to turn off. Kept
    /// only until the benchmark's replay stops calling it.
    pub fn without_cache(self) -> Self {
        self
    }

    /// Run a guided search over `spec`'s space: build its factor
    /// tables on the calling thread, then drive the strategy.
    pub fn run(&self, spec: &SweepSpec, search: &SearchSpec) -> Result<SearchOutcome, SpecError> {
        let _span = ng_obs::span("search");
        spec.validate()?;
        if search.budget < spec.apps.len() {
            return Err(SpecError::Invalid(format!(
                "search budget must be nonzero and cover one architecture ({} points), got {}",
                spec.apps.len(),
                search.budget
            )));
        }
        let space = Space::new(spec);
        let mut state = SearchState {
            space,
            tables: FactorTables::new(space),
            evaluations: 0,
            visited: HashMap::new(),
            archive: StreamingFrontier::new(),
            archive_generation: 0,
            budget: search.budget,
        };
        let space_archs = state.space.arch_count();

        let mut rng = Pcg32::with_stream(search.seed, 0xd5e);
        let exhaustive = search.budget >= spec.point_count();
        {
            let _span = ng_obs::span("drive");
            if exhaustive {
                // The budget covers the whole space: guided search must
                // degenerate to the exhaustive frontier, so scan it.
                for flat in 0..space_archs {
                    let idx = state.space.decode(flat);
                    state.eval_arch(&idx).expect("budget covers the space");
                }
            } else {
                match search.strategy {
                    SearchStrategy::HillClimb => hill_climb(&mut state, &mut rng),
                    SearchStrategy::Evolutionary => evolve(&mut state, &mut rng),
                }
            }
        }
        let mut frontier: Vec<ArchPoint> =
            state.archive.iter().map(|(o, idx)| state.tables.arch_point(idx, o)).collect();
        frontier.sort_by(|a, b| a.area_pct_of_gpu.total_cmp(&b.area_pct_of_gpu));
        Ok(SearchOutcome {
            frontier,
            stats: SearchStats {
                space_archs,
                archs_visited: state.visited.len(),
                evaluations: state.evaluations,
                exhaustive,
            },
        })
    }
}

/// Hill climbing with random restarts, interleaved with Pareto local
/// search over the archive.
///
/// Each restart draws fresh scalarisation weights and climbs
/// first-improvement (neighbours probed in a seeded random order, so a
/// step costs far less than a full 22-neighbour scan) from a random
/// start to a local optimum. The optimum joins the archive; the
/// archive's own neighbourhood is then walked exhaustively
/// ([`SearchState::explore_archive`]), which crawls along the connected
/// frontier segment the climb landed on and picks up the knee points no
/// weight draw happens to select.
fn hill_climb(state: &mut SearchState<'_>, rng: &mut Pcg32) {
    let mut fruitless = 0;
    let mut explored = std::collections::HashSet::new();
    let (accepted, rejected) =
        (obs_counters::search_hill_accepted(), obs_counters::search_hill_rejected());
    while state.can_afford_arch() && fruitless < CONVERGENCE_WINDOW {
        let before = state.archive_generation;
        let weights = Weights::draw(rng);
        let mut current = state.space.random(rng);
        let Some(mut current_eval) = state.eval_arch(&current) else { break };
        // Climb: take the first strictly-improving single-axis move,
        // probing the 2·AXES neighbours in a random rotation.
        'climb: loop {
            let offset = rng.bounded(2 * ARCH_AXES as u32) as usize;
            let current_fit = weights.fitness(&current_eval);
            for probe in 0..2 * ARCH_AXES {
                let which = (probe + offset) % (2 * ARCH_AXES);
                let (axis, dir) = (which / 2, if which.is_multiple_of(2) { -1 } else { 1 });
                let Some(neighbour) = state.space.step(&current, axis, dir) else { continue };
                let Some(eval) = state.eval_arch(&neighbour) else { break 'climb };
                if weights.fitness(&eval) > current_fit {
                    accepted.incr();
                    current = neighbour;
                    current_eval = eval;
                    continue 'climb;
                }
                rejected.incr();
            }
            break; // no improving neighbour: a local optimum
        }
        // Flesh out the frontier segment around everything archived.
        state.explore_archive(&mut explored);
        if state.archive_generation == before {
            fruitless += 1;
        } else {
            fruitless = 0;
        }
    }
}

/// μ+λ evolutionary search.
fn evolve(state: &mut SearchState<'_>, rng: &mut Pcg32) {
    let mut population: Vec<ArchIdx> = Vec::with_capacity(POPULATION);
    while population.len() < POPULATION {
        let idx = state.space.random(rng);
        if state.eval_arch(&idx).is_none() {
            return;
        }
        population.push(idx);
    }

    let dominates = |state: &SearchState<'_>, a: &ArchIdx, b: &ArchIdx| -> bool {
        state.visited[a].dominates(&state.visited[b])
    };

    let mut fruitless = 0;
    while state.can_afford_arch() && fruitless < CONVERGENCE_WINDOW {
        let before = state.archive_generation;
        let mut next: Vec<ArchIdx> = Vec::with_capacity(POPULATION);
        // Elites: archive members re-enter the pool (up to half of it).
        for (_, idx) in state.archive.iter().take(POPULATION / 2) {
            next.push(*idx);
        }
        while next.len() < POPULATION {
            // Binary tournaments pick two parents...
            let mut parent = [population[0]; 2];
            for p in &mut parent {
                let a = population[rng.bounded(population.len() as u32) as usize];
                let b = population[rng.bounded(population.len() as u32) as usize];
                *p = if dominates(state, &a, &b) {
                    a
                } else if dominates(state, &b, &a) {
                    b
                } else if rng.next_u32() & 1 == 0 {
                    a
                } else {
                    b
                };
            }
            // ... uniform crossover mixes them per axis ...
            let mut child = parent[0];
            for axis in 0..ARCH_AXES {
                if rng.next_u32() & 1 == 1 {
                    child[axis] = parent[1][axis];
                }
            }
            // ... and mutation nudges ~2 axes by one step.
            for (axis, gene) in child.iter_mut().enumerate() {
                if rng.bounded(ARCH_AXES as u32 / 2) == 0 {
                    let d = state.space.dims[axis] as isize;
                    let step = if rng.next_u32() & 1 == 0 { -1isize } else { 1 };
                    *gene = (*gene as isize + step).clamp(0, d - 1) as u32;
                }
            }
            // An offspring "proposal" is accepted when it moved the
            // non-dominated archive (eval_arch bumps the generation on
            // insert); dominated or revisited children are rejections.
            let archive_before = state.archive_generation;
            if state.eval_arch(&child).is_none() {
                break; // budget exhausted mid-generation
            }
            if state.archive_generation > archive_before {
                obs_counters::search_evo_accepted().incr();
            } else {
                obs_counters::search_evo_rejected().incr();
            }
            next.push(child);
        }
        if next.is_empty() {
            break;
        }
        population = next;
        if state.archive_generation == before {
            fruitless += 1;
        } else {
            fruitless = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> SweepSpec {
        // 2 x 3 x 2 x 2 = 24 archs, 96 points: big enough to search,
        // small enough to exhaust in tests.
        let mut spec = SweepSpec::quick();
        spec.nfp_units = vec![8, 16, 32];
        spec.grid_sram_kb = vec![512, 1024];
        spec.lanes_per_engine = vec![1, 2];
        spec.encodings = vec![
            ng_neural::apps::EncodingKind::MultiResHashGrid,
            ng_neural::apps::EncodingKind::LowResDenseGrid,
        ];
        spec
    }

    fn canon(frontier: &[ArchPoint]) -> Vec<(u64, u64, u64)> {
        let mut keys: Vec<(u64, u64, u64)> = frontier
            .iter()
            .map(|a| {
                (a.avg_speedup.to_bits(), a.area_pct_of_gpu.to_bits(), a.power_pct_of_gpu.to_bits())
            })
            .collect();
        keys.sort_unstable();
        keys
    }

    #[test]
    fn saturated_budget_degenerates_to_the_exhaustive_frontier() {
        let spec = small_spec();
        let exhaustive = crate::SweepEngine::new().run(&spec, false).unwrap();
        let expected = exhaustive.frontiers.cross_app;
        for strategy in [SearchStrategy::HillClimb, SearchStrategy::Evolutionary] {
            let search =
                SearchSpec { strategy, budget: spec.point_count(), ..SearchSpec::default() };
            let outcome = Searcher::new().run(&spec, &search).unwrap();
            assert!(outcome.stats.exhaustive);
            assert_eq!(outcome.stats.archs_visited, outcome.stats.space_archs);
            assert_eq!(canon(&outcome.frontier), canon(&expected), "{strategy:?}");
        }
    }

    #[test]
    fn search_is_deterministic_per_seed_and_respects_budget() {
        let spec = small_spec();
        for strategy in [SearchStrategy::HillClimb, SearchStrategy::Evolutionary] {
            let search = SearchSpec { strategy, budget: 40, ..SearchSpec::default() };
            let a = Searcher::new().run(&spec, &search).unwrap();
            let b = Searcher::new().run(&spec, &search).unwrap();
            assert_eq!(canon(&a.frontier), canon(&b.frontier), "{strategy:?}");
            assert_eq!(a.stats.evaluations, b.stats.evaluations);
            assert!(a.stats.evaluations <= 40, "{strategy:?}: {}", a.stats.evaluations);
            assert!(!a.stats.exhaustive);
            // Evaluations come in whole architectures.
            assert_eq!(a.stats.evaluations % spec.apps.len(), 0);
        }
    }

    #[test]
    fn searched_frontier_members_are_mutually_non_dominated() {
        let spec = small_spec();
        let search = SearchSpec { budget: 60, ..SearchSpec::default() };
        let outcome = Searcher::new().run(&spec, &search).unwrap();
        assert!(!outcome.frontier.is_empty());
        for a in &outcome.frontier {
            for b in &outcome.frontier {
                assert!(!a.objectives().dominates(&b.objectives()) || a == b);
            }
        }
        // Sorted by ascending area, like the sweep frontier.
        for w in outcome.frontier.windows(2) {
            assert!(w[0].area_pct_of_gpu <= w[1].area_pct_of_gpu);
        }
    }

    #[test]
    fn exhaustive_scan_visits_every_arch_on_an_axis_past_u16() {
        // 65,537 positions on one axis: a 16-bit position type would
        // wrap and revisit arch 0 instead of reaching the last one.
        let spec = SweepSpec {
            apps: vec![ng_neural::apps::AppKind::Gia],
            nfp_units: vec![64],
            pixels: (1..=65_537).map(|i| i * 1_000).collect(),
            ..SweepSpec::default()
        };
        let search = SearchSpec { budget: 70_000, ..SearchSpec::default() };
        let outcome = Searcher::new().run(&spec, &search).unwrap();
        assert!(outcome.stats.exhaustive);
        assert_eq!(outcome.stats.space_archs, 65_537);
        assert_eq!(outcome.stats.archs_visited, outcome.stats.space_archs);
        assert_eq!(outcome.stats.evaluations, 65_537);
    }

    #[test]
    fn zero_budget_is_rejected() {
        let spec = small_spec();
        // A budget below one architecture's points evaluates nothing.
        for budget in [0, spec.apps.len() - 1] {
            let search = SearchSpec { budget, ..SearchSpec::default() };
            assert!(Searcher::new().run(&spec, &search).is_err(), "budget {budget}");
        }
    }
}
