//! Hoisted [`ng_obs`] counter handles for the pipeline's hot paths.
//!
//! `ng_obs::counter(name)` takes the registry mutex, so hot loops must
//! not call it per event. Every counter the crate increments is
//! declared here once, behind a `OnceLock`: the first use pays the
//! registry lookup, every later use is a static deref plus one relaxed
//! `fetch_add`. Centralising the names also makes them greppable — the
//! ledger checks in `ng_obs::ledger` and the `--metrics` summary key
//! off these exact strings.

use std::sync::OnceLock;

use ng_obs::Counter;

macro_rules! hoisted {
    ($(#[$doc:meta])* $fn_name:ident => $name:literal) => {
        $(#[$doc])*
        pub fn $fn_name() -> &'static Counter {
            static C: OnceLock<Counter> = OnceLock::new();
            C.get_or_init(|| ng_obs::counter($name))
        }
    };
}

hoisted!(
    /// Design points a sweep was asked for.
    sweep_points => "sweep.points"
);
hoisted!(
    /// Points evaluated, added by each sweep worker (once, after its
    /// range) and the guided searcher (once per architecture).
    /// Invariant (checked by `ng_obs::Ledger::check`):
    /// `eval.ticks == sweep.points` for a sweep.
    eval_ticks => "eval.ticks"
);
hoisted!(
    /// Architectures a sweep worker skipped unscored, because its
    /// frontiers rejected the bound of a block holding them; added once
    /// per worker, after its range. The skipped points still count into
    /// `eval.ticks`.
    fold_archs_skipped => "fold.archs_skipped"
);
hoisted!(
    /// Points accepted into a streaming Pareto frontier.
    frontier_inserts => "frontier.inserts"
);
hoisted!(
    /// Archived points evicted by a newly dominant one.
    frontier_prunes => "frontier.prunes"
);
hoisted!(
    /// Hill-climb proposals that improved the incumbent.
    search_hill_accepted => "search.hill.accepted"
);
hoisted!(
    /// Hill-climb proposals evaluated but not improving.
    search_hill_rejected => "search.hill.rejected"
);
hoisted!(
    /// Evolutionary offspring that entered the Pareto archive.
    search_evo_accepted => "search.evo.accepted"
);
hoisted!(
    /// Evolutionary offspring evaluated but dominated.
    search_evo_rejected => "search.evo.rejected"
);
