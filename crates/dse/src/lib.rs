//! # ng-dse — parallel design-space exploration for the NGPC
//!
//! The paper's headline results (Figs. 12–15) are single points read off
//! a much larger configuration space: NFP count, clock, grid-SRAM
//! sizing and banking, input encoding and application mix. This crate
//! turns that space into a first-class workload:
//!
//! * [`spec`] — a declarative [`SweepSpec`]: cartesian axes over every
//!   swept parameter, loadable from a TOML subset or built from presets
//!   ([`SweepSpec::paper`], [`SweepSpec::quick`], ...), and its one
//!   index space [`spec::Space`] (apps outermost, so design point
//!   `flat` is architecture `flat % arch_count`). Enumeration, the
//!   cross-app fold and the guided searcher all read positions from it.
//! * [`sweep`] — the [`SweepEngine`]: expands the spec into
//!   [`DesignPoint`]s and evaluates each with one stateless
//!   [`ngpc::emulate`] call, split into static contiguous chunks over
//!   scoped threads, with results in spec order at any thread count.
//! * [`search`] — the budgeted guided [`Searcher`] over the same space.
//! * [`pareto`] — n-dimensional non-dominated frontier extraction over
//!   {speedup, area % of GPU, power % of GPU}, with budget
//!   [`Constraints`] and per-app / cross-app-average objectives.
//! * [`emit`] — CSV/JSON emitters.
//! * [`cache`] — a CSV point store that no product path uses, kept only
//!   for the benchmark's replay: evaluating a point (under 0.5 µs on one
//!   thread) is cheaper than reading it back, so every run is a pure
//!   in-memory pipeline.
//! * [`report`] — the compact terminal report behind the `dse` binary.
//! * [`obs_counters`] — the crate's hoisted [`ng_obs`] counter handles.
//!   Every stage is instrumented with `ng-obs` spans and counters:
//!   `dse --trace PATH` records a JSONL run ledger,
//!   `dse trace PATH` summarizes one, and `dse --metrics` prints the
//!   in-process profile and counters after any run.
//!
//! ## Quickstart
//!
//! ```
//! use ng_dse::{Constraints, SweepEngine, SweepSpec};
//!
//! let outcome = SweepEngine::new().run(&SweepSpec::quick()).unwrap();
//! // Architectures within an area budget of 10% of the GPU die, best
//! // cross-app speedup first.
//! let budget = Constraints { max_area_pct: Some(10.0), ..Constraints::default() };
//! let frontier = outcome.cross_app_frontier(&budget);
//! assert!(!frontier.is_empty());
//! assert!(frontier.iter().all(|a| a.area_pct_of_gpu <= 10.0));
//! ```

pub mod cache;
pub mod emit;
pub mod obs_counters;
pub mod pareto;
pub mod report;
pub mod search;
pub mod spec;
pub mod sweep;

pub use cache::EvalCache;
pub use pareto::{Constraints, Objectives, StreamingFrontier};
pub use search::{SearchOutcome, SearchSpec, SearchStats, SearchStrategy, Searcher};
pub use spec::{DesignPoint, SpecError, SweepSpec};
pub use sweep::{ArchPoint, EvaluatedPoint, SweepEngine, SweepOutcome, SweepStats};

/// Version tag of the underlying evaluation models, mixed into every
/// [`EvalCache`] key (kept, like the store, only for the benchmark's
/// replay). **Bump this whenever `ngpc`'s emulator, the GPU
/// model or the area/power substrate changes results** so store
/// generations stay humanly tellable apart on disk — though since
/// [`model_fingerprint`] is also folded into every key, a forgotten
/// bump never serves stale results.
pub const MODEL_VERSION: &str = "ngpc-models-v4";

/// Fingerprint of the evaluation models' actual *outputs*: a probe
/// sweep evaluated single-threaded and hashed at 9 significant digits
/// (coarse enough to absorb cross-platform libm jitter, fine enough
/// that any deliberate model change shifts it). The probe is the
/// quick preset *widened along the MAC-array, engine-count, query-lane
/// and input-FIFO axes* (2 engine counts x 2 row counts x 2 column
/// counts x 2 lane counts x 2 FIFO depths), so drift in the
/// compositional timing model — which is invisible at the paper's NFP
/// by construction — still invalidates stored sweep results, including
/// drift that only shows on the lane/FIFO axes the guided searcher
/// explores.
/// Folded into every point-store key next to [`MODEL_VERSION`]; the
/// pinned value in `tests/model_fingerprint.rs` turns silent drift into
/// a test failure with bump instructions. Computed once per process,
/// and only by [`EvalCache`] users: 512 evaluations, under 1 ms.
/// The probe is bookkeeping, not user work, so it calls
/// [`ngpc::emulate`] directly and never counts into the `sweep.*` or
/// `eval.ticks` counters.
pub fn model_fingerprint() -> u64 {
    static FINGERPRINT: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *FINGERPRINT.get_or_init(|| {
        let mut probe = SweepSpec::quick();
        probe.encoding_engines = vec![8, 16];
        probe.mac_rows = vec![32, 64];
        probe.mac_cols = vec![32, 64];
        probe.lanes_per_engine = vec![1, 2];
        probe.input_fifo_depth = vec![4, 64];
        let mut text = String::new();
        for p in probe.points() {
            let r = ngpc::emulate(&p.emulator_input());
            text.push_str(&format!(
                "{:.9e},{:.9e},{:.9e};",
                r.speedup, r.area_pct_of_gpu, r.power_pct_of_gpu
            ));
        }
        ng_neural::math::fnv1a64(&text)
    })
}
