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
    /// Points a sweep evaluated. Invariant (checked by
    /// `ng_obs::Ledger::check`): `sweep.fresh_evals == sweep.points`
    /// per process.
    sweep_fresh_evals => "sweep.fresh_evals"
);
hoisted!(
    /// Per-point tick from inside the sweep's workers and the guided
    /// searcher — the live counter the progress meter samples.
    eval_ticks => "eval.ticks"
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
