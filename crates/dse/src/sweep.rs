//! The sweep engine: a spec in, its constrained Pareto frontiers out,
//! in one streamed pass that holds no point vector.

use std::ops::Range;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use ng_neural::apps::{AppKind, EncodingKind};

use crate::factors::FactorTables;
use crate::obs_counters;
use crate::pareto::{Constraints, Objectives, StreamingFrontier};
use crate::spec::{DesignPoint, Space, SpecError, SweepSpec, AXES};

/// One evaluated configuration: the point plus the emulator outputs the
/// frontier and reports read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvaluatedPoint {
    /// The configuration.
    pub point: DesignPoint,
    /// End-to-end speedup over the GPU baseline.
    pub speedup: f64,
    /// Cluster area as % of the GPU die.
    pub area_pct_of_gpu: f64,
    /// Cluster power as % of GPU TDP.
    pub power_pct_of_gpu: f64,
    /// GPU baseline frame time (ms).
    pub gpu_ms: f64,
    /// NGPC end-to-end frame time (ms).
    pub ngpc_frame_ms: f64,
    /// The configuration's Amdahl bound.
    pub amdahl_bound: f64,
    /// Whether the rest-kernel stage dominates (more NFPs won't help).
    pub plateaued: bool,
}

impl EvaluatedPoint {
    /// `point` with the emulator outputs the frontier and reports read.
    pub(crate) fn from_result(point: DesignPoint, r: &ngpc::EmulationResult) -> Self {
        EvaluatedPoint {
            point,
            speedup: r.speedup,
            area_pct_of_gpu: r.area_pct_of_gpu,
            power_pct_of_gpu: r.power_pct_of_gpu,
            gpu_ms: r.gpu_ms,
            ngpc_frame_ms: r.ngpc_frame_ms,
            amdahl_bound: r.amdahl_bound,
            plateaued: r.plateaued,
        }
    }

    /// `point` with every output zeroed: a slot that
    /// [`evaluate_points`] or a block refill overwrites in place.
    pub(crate) fn pending(point: DesignPoint) -> Self {
        EvaluatedPoint {
            point,
            speedup: 0.0,
            area_pct_of_gpu: 0.0,
            power_pct_of_gpu: 0.0,
            gpu_ms: 0.0,
            ngpc_frame_ms: 0.0,
            amdahl_bound: 0.0,
            plateaued: false,
        }
    }

    /// This point's position in objective space.
    pub fn objectives(&self) -> Objectives {
        Objectives {
            speedup: self.speedup,
            area_pct: self.area_pct_of_gpu,
            power_pct: self.power_pct_of_gpu,
        }
    }
}

/// One architecture with per-app speedups folded into the cross-app
/// average — the objective the paper's Fig. 12 bars report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArchPoint {
    /// Input-encoding scheme.
    pub encoding: EncodingKind,
    /// Frame resolution in pixels.
    pub pixels: u64,
    /// NFP count.
    pub nfp_units: u32,
    /// NFP clock in GHz.
    pub clock_ghz: f64,
    /// Grid SRAM per engine in KiB.
    pub grid_sram_kb: u32,
    /// Banks per grid SRAM.
    pub grid_sram_banks: u32,
    /// Input-encoding engines per NFP.
    pub encoding_engines: u32,
    /// MAC array rows of the MLP engine.
    pub mac_rows: u32,
    /// MAC array columns of the MLP engine.
    pub mac_cols: u32,
    /// Query lanes per encoding engine.
    pub lanes_per_engine: u32,
    /// Fusion input-FIFO depth in entries.
    pub input_fifo_depth: u32,
    /// Number of apps averaged.
    pub apps: u32,
    /// Cross-app average speedup.
    pub avg_speedup: f64,
    /// Cluster area as % of the GPU die (app-independent).
    pub area_pct_of_gpu: f64,
    /// Cluster power as % of GPU TDP (app-independent).
    pub power_pct_of_gpu: f64,
}

impl ArchPoint {
    /// Fold one architecture's per-app points, in app order, into its
    /// cross-app average (`cross_app_mean`). Area and power are
    /// app-independent, so they come from the first point.
    pub fn from_app_points(points: impl IntoIterator<Item = EvaluatedPoint>) -> Self {
        let mut points = points.into_iter().peekable();
        let first = *points.peek().expect("an architecture has at least one app");
        let mut apps = 0;
        let speedup = cross_app_mean(points.map(|p| {
            apps += 1;
            p.speedup
        }));
        let objectives = Objectives {
            speedup,
            area_pct: first.area_pct_of_gpu,
            power_pct: first.power_pct_of_gpu,
        };
        Self::new(&first.point, apps, &objectives)
    }

    /// The architecture of `d` (its app and index are not read),
    /// averaged over `apps` apps, at `objectives`.
    pub(crate) fn new(d: &DesignPoint, apps: usize, objectives: &Objectives) -> Self {
        ArchPoint {
            encoding: d.encoding,
            pixels: d.pixels,
            nfp_units: d.nfp_units,
            clock_ghz: d.clock_ghz,
            grid_sram_kb: d.grid_sram_kb,
            grid_sram_banks: d.grid_sram_banks,
            encoding_engines: d.encoding_engines,
            mac_rows: d.mac_rows,
            mac_cols: d.mac_cols,
            lanes_per_engine: d.lanes_per_engine,
            input_fifo_depth: d.input_fifo_depth,
            apps: apps as u32,
            avg_speedup: objectives.speedup,
            area_pct_of_gpu: objectives.area_pct,
            power_pct_of_gpu: objectives.power_pct,
        }
    }

    /// This architecture's position in objective space.
    pub fn objectives(&self) -> Objectives {
        Objectives {
            speedup: self.avg_speedup,
            area_pct: self.area_pct_of_gpu,
            power_pct: self.power_pct_of_gpu,
        }
    }

    /// This architecture as a design point, at index 0 under the first
    /// app (neither of which an architecture has): what the loops over
    /// [`AXES`] read its values from.
    pub(crate) fn point(&self) -> DesignPoint {
        DesignPoint {
            index: 0,
            app: AppKind::Nerf,
            encoding: self.encoding,
            pixels: self.pixels,
            nfp_units: self.nfp_units,
            clock_ghz: self.clock_ghz,
            grid_sram_kb: self.grid_sram_kb,
            grid_sram_banks: self.grid_sram_banks,
            encoding_engines: self.encoding_engines,
            mac_rows: self.mac_rows,
            mac_cols: self.mac_cols,
            lanes_per_engine: self.lanes_per_engine,
            input_fifo_depth: self.input_fifo_depth,
        }
    }

    /// Whether this is the paper's published NGPC-64 headline
    /// *organisation*: every arch axis holds its paper value in
    /// [`AXES`] (hashgrid, FHD, 64 units, 1 GHz, 1 MB/8-bank grid SRAMs,
    /// 16 engines, 64x64 MACs). The lane/FIFO
    /// microarchitecture axes are deliberately left free: in the
    /// exploded lane/FIFO space the model (correctly) finds the
    /// paper's 64-deep FIFO oversized at plateau scale — every app is
    /// Amdahl-bound at 64 units, so any depth buys the same speedup
    /// and the frontier right-sizes the FIFO below the overlap knee.
    /// In the paper and mac-arrays presets those axes are pinned at
    /// the paper's 1 lane / 64 entries, so the match is exact there.
    /// Shared by every headline check (`dse --check-headline` and the
    /// paper check line of the `paper` and `mac-arrays` reports), and
    /// its values with [`SweepSpec::contains_paper_organisation`], so
    /// the checks cannot drift apart.
    pub fn is_paper_organisation(&self) -> bool {
        let point = self.point();
        AXES[1..].iter().all(|a| a.field.is_paper(&point))
    }
}

/// The cross-app mean of one architecture's per-app `speedups`, in app
/// order: summed in that order, then divided by their count. The one
/// implementation of the mean, shared by [`ArchPoint::from_app_points`]
/// and the scorer of [`FactorTables`].
pub(crate) fn cross_app_mean(speedups: impl IntoIterator<Item = f64>) -> f64 {
    let mut speedups = speedups.into_iter();
    let first = speedups.next().expect("an architecture has at least one app");
    let (mut apps, mut sum) = (1u32, first);
    for speedup in speedups {
        apps += 1;
        sum += speedup;
    }
    sum / apps as f64
}

/// How a sweep executed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepStats {
    /// Points in the sweep.
    pub total_points: usize,
    /// Points evaluated this run (every point).
    pub evaluated: usize,
    /// Always 0: sweeps have no point store. Kept, with
    /// [`SweepStats::cache_hit`] and [`SweepOutcome::cache_path`], only
    /// until the benchmark's replay stops building them.
    pub cache_hits: usize,
    /// Always `false` (see [`SweepStats::cache_hits`]).
    pub cache_hit: bool,
    /// Worker threads that ran: the calling thread and the scoped ones,
    /// one per range of architectures (at most the count asked for,
    /// and at most the architecture count).
    pub threads: usize,
    /// Wall-clock time of the run: evaluation, the cross-app fold and
    /// the frontiers.
    pub wall: Duration,
}

impl SweepStats {
    /// Evaluation throughput (points per second); 0 for an empty or
    /// untimed run.
    pub fn points_per_sec(&self) -> f64 {
        if self.evaluated == 0 || self.wall.is_zero() {
            0.0
        } else {
            self.evaluated as f64 / self.wall.as_secs_f64()
        }
    }
}

/// The constrained Pareto frontiers a sweep report prints, each sorted
/// by ascending area.
#[derive(Debug, Clone, PartialEq)]
pub struct Frontiers {
    /// Architectures swept (the "of N architectures" of the report).
    pub archs: usize,
    /// The cross-app-average frontier.
    pub cross_app: Vec<ArchPoint>,
    /// Each swept app's own frontier, in [`AppKind::ALL`] order; empty
    /// unless asked for.
    pub per_app: Vec<(AppKind, Vec<EvaluatedPoint>)>,
}

/// A streamed sweep: its stats and frontiers, and the factor tables
/// the emitters (`write_csv`, `write_json`) refill blocks of points
/// from. It holds no point vector, so its size does not grow with the
/// point count.
pub struct Sweep<'a> {
    /// How the run executed.
    pub stats: SweepStats,
    /// The constrained frontiers.
    pub frontiers: Frontiers,
    pub(crate) tables: FactorTables<'a>,
}

/// A sweep with every point in memory, in spec order. Kept, with
/// [`crate::report::print_report`], [`crate::emit::points_to_csv`] and
/// [`crate::emit::outcome_to_json`], only for the benchmark's replay;
/// `dse` runs a [`Sweep`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// The spec that was swept.
    pub spec: SweepSpec,
    /// One result per design point, in the spec's enumeration order.
    pub points: Vec<EvaluatedPoint>,
    /// How the run executed.
    pub stats: SweepStats,
    /// Always `None` (see [`SweepStats::cache_hits`]).
    pub cache_path: Option<PathBuf>,
}

impl SweepOutcome {
    /// The constrained Pareto frontier of one app's points, sorted by
    /// ascending area.
    pub fn per_app_frontier(&self, app: AppKind, constraints: &Constraints) -> Vec<EvaluatedPoint> {
        let mut frontier = StreamingFrontier::new();
        for p in self.points.iter().filter(|p| p.point.app == app) {
            frontier.insert_constrained(p.objectives(), *p, constraints);
        }
        by_area(frontier.into_payloads(), |p| p.area_pct_of_gpu)
    }

    /// Fold per-app results into one [`ArchPoint`] per architecture
    /// (cross-app average speedup), in arch order. Architecture `k`'s
    /// app points sit at `k + a * arch_count` ([`Space`]).
    ///
    /// # Panics
    ///
    /// If `points` does not hold one point per spec point (a hand-built
    /// outcome can be short).
    pub fn cross_app(&self) -> Vec<ArchPoint> {
        assert_eq!(
            self.points.len(),
            self.spec.point_count(),
            "cross_app needs one evaluated point per spec point, in spec order"
        );
        let apps = self.spec.apps.len();
        let archs = if apps == 0 { 0 } else { Space::new(&self.spec).arch_count() };
        (0..archs)
            .map(|k| ArchPoint::from_app_points((0..apps).map(|a| self.points[a * archs + k])))
            .collect()
    }

    /// The constrained Pareto frontier of the cross-app-average
    /// objective, sorted by ascending area.
    pub fn cross_app_frontier(&self, constraints: &Constraints) -> Vec<ArchPoint> {
        arch_frontier(&self.cross_app(), constraints)
    }
}

/// The constrained Pareto frontier of `archs`, sorted by ascending
/// area. Objectives are computed once per architecture and streamed
/// with dominance pruning.
pub fn arch_frontier(archs: &[ArchPoint], constraints: &Constraints) -> Vec<ArchPoint> {
    let mut frontier = StreamingFrontier::new();
    for a in archs {
        frontier.insert_constrained(a.objectives(), *a, constraints);
    }
    by_area(frontier.into_payloads(), |a| a.area_pct_of_gpu)
}

/// A frontier's payloads in ascending area, in a stable sort: equal
/// areas keep their insertion (spec) order.
fn by_area<T>(mut payloads: Vec<T>, area: impl Fn(&T) -> f64) -> Vec<T> {
    payloads.sort_by(|a, b| area(a).total_cmp(&area(b)));
    payloads
}

/// The swept apps in report order ([`AppKind::ALL`] order), each with
/// its position on the spec's app axis.
pub(crate) fn apps_in_report_order(
    spec: &SweepSpec,
) -> impl Iterator<Item = (AppKind, usize)> + '_ {
    AppKind::ALL
        .into_iter()
        .filter_map(|app| Some((app, spec.apps.iter().position(|&a| a == app)?)))
}

/// Most workers a sweep or [`evaluate_points`] runs: each is one OS
/// thread.
pub const MAX_THREADS: usize = 256;

/// The length of the static, contiguous ranges that `len` items
/// (nonzero) split into for `threads` workers: at most `threads`, at
/// most [`MAX_THREADS`] and at most `len` ranges.
fn range_len(len: usize, threads: usize) -> usize {
    len.div_ceil(threads.clamp(1, MAX_THREADS.min(len)))
}

/// Evaluate design points one [`ngpc::emulate`] call each, on up to
/// `threads` (at most [`MAX_THREADS`]) scoped workers: one result per
/// point, in input order, bit-identical regardless of thread count.
/// The sweep and the searcher evaluate from factor tables instead; this
/// is the reference they are tested against.
pub fn evaluate_points(points: &[DesignPoint], threads: usize) -> Vec<EvaluatedPoint> {
    let _span = ng_obs::span("evaluate");
    let ticks = obs_counters::eval_ticks();
    let mut out: Vec<EvaluatedPoint> =
        points.iter().copied().map(EvaluatedPoint::pending).collect();
    if out.is_empty() {
        return out;
    }
    let chunk = range_len(out.len(), threads);
    std::thread::scope(|scope| {
        for slots in out.chunks_mut(chunk) {
            scope.spawn(move || {
                for slot in slots.iter_mut() {
                    *slot = EvaluatedPoint::from_result(
                        slot.point,
                        &ngpc::emulate(&slot.point.emulator_input()),
                    );
                }
                ticks.add(slots.len() as u64);
            });
        }
    });
    out
}

/// One range's share of a sweep: the constrained frontiers of a
/// contiguous range of architectures, each survivor named by its flat
/// architecture number (cross-app) or spec index (per app).
struct Part {
    cross_app: StreamingFrontier<usize>,
    /// One frontier per app-axis position; empty unless asked for.
    per_app: Vec<StreamingFrontier<usize>>,
}

/// Score the architectures `archs` (flat numbers, ascending) with
/// [`FactorTables::walk`] and offer each architecture's objectives (and,
/// with `per_app`, each app's) to the worker's own frontiers. Adds the
/// points it scored to `eval.ticks` once, after its loop.
fn fold_archs(
    tables: &FactorTables,
    archs: Range<usize>,
    constraints: &Constraints,
    per_app: bool,
) -> Part {
    let space = &tables.space;
    let (apps, arch_count) = (space.spec.apps.len(), space.arch_count());
    let mut part = Part {
        cross_app: StreamingFrontier::new(),
        per_app: (0..if per_app { apps } else { 0 }).map(|_| StreamingFrontier::new()).collect(),
    };
    let points = archs.len() * apps;
    if per_app {
        tables.walk(archs, |flat, score| {
            for (app, &speedup) in score.speedups().iter().enumerate() {
                let objectives = Objectives { speedup, ..score.objectives };
                part.per_app[app].insert_constrained(
                    objectives,
                    app * arch_count + flat,
                    constraints,
                );
            }
            part.cross_app.insert_constrained(score.objectives, flat, constraints);
        });
    } else {
        tables.walk(archs, |flat, score| {
            part.cross_app.insert_constrained(score.objectives, flat, constraints);
        });
    }
    obs_counters::eval_ticks().add(points as u64);
    part
}

/// Split the space's architectures into at most `threads` static,
/// contiguous ranges in [`Space`] order and fold each: the calling
/// thread folds the first range while one scoped thread each folds the
/// others. Then merge the frontiers in range order. Each frontier keeps
/// its survivors in insertion order, so the merge yields the
/// single-pass frontier in the same order
/// ([`StreamingFrontier::merge`]). Only then are the survivors decoded
/// into records, and the stable area sort gives the same frontier at
/// any thread count. Returns the frontiers and the number of ranges,
/// which is the number of threads that ran.
fn fold_space(
    tables: &FactorTables,
    threads: usize,
    constraints: &Constraints,
    per_app: bool,
) -> (Frontiers, usize) {
    let archs = tables.space.arch_count();
    let chunk = range_len(archs, threads);
    let (whole, ran) = std::thread::scope(|scope| {
        let mut ranges = (0..archs).step_by(chunk).map(|lo| lo..(lo + chunk).min(archs));
        let first = ranges.next().expect("a validated space has an architecture");
        let workers: Vec<_> = ranges
            .map(|range| scope.spawn(move || fold_archs(tables, range, constraints, per_app)))
            .collect();
        let ran = 1 + workers.len();
        let mut whole = fold_archs(tables, first, constraints, per_app);
        for worker in workers {
            let part = worker.join().expect("a sweep worker panicked");
            whole.cross_app.merge(part.cross_app);
            for (frontier, later) in whole.per_app.iter_mut().zip(part.per_app) {
                frontier.merge(later);
            }
        }
        (whole, ran)
    });
    let per_app = if per_app {
        apps_in_report_order(tables.space.spec)
            .map(|(app, a)| {
                let points = whole.per_app[a].iter().map(|&(_, index)| tables.point(index));
                (app, by_area(points.collect(), |p| p.area_pct_of_gpu))
            })
            .collect()
    } else {
        Vec::new()
    };
    let cross_app = whole
        .cross_app
        .iter()
        .map(|(objectives, flat)| tables.arch_point(&tables.space.decode(*flat), objectives))
        .collect();
    let cross_app = by_area(cross_app, |a| a.area_pct_of_gpu);
    (Frontiers { archs, cross_app, per_app }, ran)
}

/// The sweep executor: a thread count.
#[derive(Debug, Clone, Default)]
pub struct SweepEngine {
    /// Worker threads; `None` means every available core, looked up
    /// inside [`SweepEngine::run`]'s `sweep` span (the lookup reads
    /// cgroup files and costs ~0.1 ms, which the trace should charge to
    /// the sweep).
    threads: Option<usize>,
}

impl SweepEngine {
    /// An engine using every available core.
    pub fn new() -> Self {
        Self::default()
    }

    /// Use `threads` workers, clamped to 1..=[`MAX_THREADS`].
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.clamp(1, MAX_THREADS));
        self
    }

    /// Run a sweep in one streamed pass: validate, build the spec's
    /// factor tables, then have each worker evaluate a contiguous range
    /// of architectures, fold each over its apps and keep only its own
    /// constrained frontiers (and, with `per_app`, each app's). The
    /// merged frontiers are the same at any thread count.
    pub fn run<'a>(
        &self,
        spec: &'a SweepSpec,
        constraints: &Constraints,
        per_app: bool,
    ) -> Result<Sweep<'a>, SpecError> {
        let _span = ng_obs::span("sweep");
        let started = Instant::now();
        spec.validate()?;
        let threads = self.threads.unwrap_or_else(available_threads);
        let total = spec.point_count();
        obs_counters::sweep_points().add(total as u64);
        // `threads` becomes the count that ran.
        let (tables, (frontiers, threads)) = {
            let _span = ng_obs::span("evaluate");
            let tables = FactorTables::new(Space::new(spec));
            let folded = fold_space(&tables, threads, constraints, per_app);
            (tables, folded)
        };

        Ok(Sweep {
            stats: SweepStats {
                total_points: total,
                evaluated: total,
                cache_hits: 0,
                cache_hit: false,
                threads,
                wall: started.elapsed(),
            },
            frontiers,
            tables,
        })
    }
}

/// `std::thread::available_parallelism`, defaulting to 1 when unknown,
/// at most [`MAX_THREADS`].
fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(MAX_THREADS))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The held-points reference of `spec`: one `emulate` call a point.
    fn oracle(spec: &SweepSpec) -> SweepOutcome {
        let points = evaluate_points(&spec.points(), 1);
        SweepOutcome {
            spec: spec.clone(),
            stats: SweepStats {
                total_points: points.len(),
                evaluated: points.len(),
                cache_hits: 0,
                cache_hit: false,
                threads: 1,
                wall: Duration::ZERO,
            },
            points,
            cache_path: None,
        }
    }

    fn sweep<'a>(spec: &'a SweepSpec, threads: usize, c: &Constraints) -> Sweep<'a> {
        SweepEngine::new().with_threads(threads).run(spec, c, true).unwrap()
    }

    /// No caller gets more than [`MAX_THREADS`] workers: the engine
    /// clamps its count, and the ranges a count splits a space into are
    /// at most that many (checked on the arithmetic; no thread starts).
    #[test]
    fn worker_counts_are_clamped_to_max_threads() {
        for (asked, kept) in [(0, 1), (1, 1), (7, 7), (MAX_THREADS, MAX_THREADS)] {
            assert_eq!(SweepEngine::new().with_threads(asked).threads, Some(kept));
        }
        for asked in [MAX_THREADS + 1, 100_000, usize::MAX] {
            assert_eq!(SweepEngine::new().with_threads(asked).threads, Some(MAX_THREADS));
        }
        assert!(available_threads() <= MAX_THREADS);
        // Guided-lanes' 65,610 architectures, and the point counts
        // `evaluate_points` splits.
        for len in [1usize, 16, 1_440, 65_610, 262_440] {
            for threads in [0, 1, 3, MAX_THREADS, MAX_THREADS + 1, 100_000, usize::MAX] {
                let ranges = len.div_ceil(range_len(len, threads));
                assert!(ranges <= MAX_THREADS.min(len), "{len} items, {threads} threads");
                assert!(ranges <= threads.max(1), "{len} items, {threads} threads");
            }
        }
    }

    #[test]
    fn evaluate_points_is_thread_count_invariant() {
        // More threads than points (quick has 16), and the uneven chunk
        // boundaries of paper's 1,440 points.
        for spec in [SweepSpec::quick(), SweepSpec::paper()] {
            let points = spec.points();
            let one = evaluate_points(&points, 1);
            assert!(one.iter().map(|ep| ep.point).eq(points.iter().copied()), "{}", spec.name);
            for threads in [2, 3, 7, 64] {
                let many = evaluate_points(&points, threads);
                assert_eq!(many, one, "{} at {threads} threads", spec.name);
            }
        }
        assert!(evaluate_points(&[], 8).is_empty());
        let single = &SweepSpec::quick().points()[..1];
        assert_eq!(evaluate_points(single, 8), evaluate_points(single, 1));
    }

    /// On every preset, the streamed frontiers equal the held-points
    /// reference's at every thread count from 1 to 8 (static ranges of
    /// uneven length, and more workers than quick has architectures),
    /// with and without a budget, and with and without the per-app
    /// frontiers (`dse`'s default): equal-area survivors keep their
    /// single-pass order, which `clocks` shows.
    #[test]
    fn streamed_frontiers_match_the_held_points_at_any_thread_count() {
        let budget =
            Constraints { max_area_pct: Some(10.0), max_power_pct: Some(6.0), min_speedup: None };
        for spec in SweepSpec::PRESETS.map(|name| SweepSpec::preset(name).unwrap()) {
            let oracle = oracle(&spec);
            for c in [Constraints::NONE, budget] {
                let want = Frontiers {
                    archs: oracle.cross_app().len(),
                    cross_app: oracle.cross_app_frontier(&c),
                    per_app: apps_in_report_order(&spec)
                        .map(|(app, _)| (app, oracle.per_app_frontier(app, &c)))
                        .collect(),
                };
                for threads in 1..=8 {
                    let got = sweep(&spec, threads, &c);
                    assert_eq!(got.frontiers, want, "{} at {threads} threads, {c:?}", spec.name);
                    assert_eq!(got.stats.total_points, spec.point_count());
                    // One thread per range: quick's 4 architectures
                    // run on 4 threads when 5 to 8 are asked for.
                    let archs = got.frontiers.archs;
                    assert_eq!(got.stats.threads, archs.div_ceil(archs.div_ceil(threads)));
                    assert!(got.stats.threads <= threads.min(archs), "{} at {threads}", spec.name);
                    let engine = SweepEngine::new().with_threads(threads);
                    let default = engine.run(&spec, &c, false).unwrap().frontiers;
                    let want = Frontiers { per_app: Vec::new(), ..want.clone() };
                    assert_eq!(default, want, "{} at {threads} threads, {c:?}", spec.name);
                }
            }
        }
    }

    #[test]
    fn fig12a_averages_via_the_cross_app_frontier() {
        // The cross-app fold must reproduce the paper's Fig. 12-a bars;
        // on quick every NFP count is Pareto-optimal.
        let spec = SweepSpec::quick();
        let frontier = sweep(&spec, 2, &Constraints::NONE).frontiers.cross_app;
        assert_eq!(frontier.len(), 4);
        for (n, target) in [(8u32, 12.94f64), (16, 20.85), (32, 33.73), (64, 39.04)] {
            let a = frontier.iter().find(|a| a.nfp_units == n).unwrap();
            assert_eq!(a.apps, 4);
            assert!((a.avg_speedup - target).abs() < target * 0.01, "{}: {}", n, a.avg_speedup);
        }
    }

    #[test]
    fn cross_app_matches_a_keyed_reference_fold_bit_for_bit() {
        for spec in [SweepSpec::paper(), SweepSpec::mac_arrays()] {
            let outcome = oracle(&spec);
            // Group by the arch axes (the point with its index and app
            // blanked), in first-seen order, summing speedups in point
            // order.
            let arch_of = |p: &DesignPoint| DesignPoint { index: 0, app: AppKind::Nerf, ..*p };
            let mut reference: Vec<(DesignPoint, u32, f64, &EvaluatedPoint)> = Vec::new();
            for p in &outcome.points {
                let key = arch_of(&p.point);
                match reference.iter_mut().find(|(k, ..)| *k == key) {
                    Some((_, apps, sum, _)) => {
                        *apps += 1;
                        *sum += p.speedup;
                    }
                    None => reference.push((key, 1, 0.0 + p.speedup, p)),
                }
            }
            let archs = outcome.cross_app();
            assert_eq!(archs.len(), reference.len(), "{}", spec.name);
            for (a, (k, apps, sum, first)) in archs.iter().zip(&reference) {
                let expected = ArchPoint {
                    encoding: k.encoding,
                    pixels: k.pixels,
                    nfp_units: k.nfp_units,
                    clock_ghz: k.clock_ghz,
                    grid_sram_kb: k.grid_sram_kb,
                    grid_sram_banks: k.grid_sram_banks,
                    encoding_engines: k.encoding_engines,
                    mac_rows: k.mac_rows,
                    mac_cols: k.mac_cols,
                    lanes_per_engine: k.lanes_per_engine,
                    input_fifo_depth: k.input_fifo_depth,
                    apps: *apps,
                    avg_speedup: sum / *apps as f64,
                    area_pct_of_gpu: first.area_pct_of_gpu,
                    power_pct_of_gpu: first.power_pct_of_gpu,
                };
                assert_eq!(a.avg_speedup.to_bits(), expected.avg_speedup.to_bits());
                assert_eq!(*a, expected, "{}", spec.name);
            }
        }
    }

    #[test]
    #[should_panic(expected = "cross_app needs one evaluated point per spec point")]
    fn cross_app_rejects_a_truncated_outcome() {
        let mut outcome = oracle(&SweepSpec::quick());
        outcome.points.pop();
        outcome.cross_app();
    }

    #[test]
    fn paper_headline_point_is_on_the_cross_app_frontier() {
        let spec = SweepSpec::paper();
        let frontier = sweep(&spec, 2, &Constraints::NONE).frontiers.cross_app;
        let arch = frontier
            .iter()
            .find(|a| a.is_paper_organisation())
            .expect("NGPC-64 must be Pareto-optimal");
        assert!((arch.avg_speedup - 39.04).abs() < 0.4, "{}", arch.avg_speedup);
    }

    /// Whether a spec contains the paper's organisation is decided from
    /// its axes, and agrees with folding every architecture.
    #[test]
    fn paper_organisation_is_a_spec_predicate() {
        let folded = |spec: &SweepSpec| {
            spec.points().into_iter().any(|p| {
                ArchPoint::from_app_points([EvaluatedPoint::pending(p)]).is_paper_organisation()
            })
        };
        for name in SweepSpec::PRESETS {
            let spec = SweepSpec::preset(name).unwrap();
            assert!(spec.contains_paper_organisation(), "{name}");
            assert!(folded(&spec), "{name}");
        }
        for nfp_units in [vec![8], vec![8, 16, 32]] {
            let spec = SweepSpec { nfp_units, ..SweepSpec::paper() };
            assert!(!spec.contains_paper_organisation());
            assert!(!folded(&spec));
        }
        let no_apps = SweepSpec { apps: Vec::new(), ..SweepSpec::paper() };
        assert!(!no_apps.contains_paper_organisation());
    }

    #[test]
    fn per_app_frontier_respects_constraints_and_dominance() {
        let spec = SweepSpec::paper();
        let budget = Constraints {
            max_area_pct: Some(10.0),
            max_power_pct: Some(6.0),
            ..Constraints::default()
        };
        let sweep = sweep(&spec, 2, &budget);
        let (app, frontier) =
            sweep.frontiers.per_app.iter().find(|(app, _)| *app == AppKind::Gia).unwrap();
        assert!(!frontier.is_empty());
        for p in frontier {
            assert!(p.area_pct_of_gpu <= 10.0 && p.power_pct_of_gpu <= 6.0);
            assert_eq!(p.point.app, *app);
        }
        for a in frontier {
            for b in frontier {
                assert!(!a.objectives().dominates(&b.objectives()) || a == b);
            }
        }
    }
}
