//! Pareto frontier extraction over the architect's three objectives.
//!
//! A configuration is *dominated* if some other configuration is at
//! least as good on every objective — higher speedup, lower area, lower
//! power — and strictly better on at least one. The frontier is the set
//! of non-dominated configurations: every point an architect could
//! rationally pick, for some weighting of the objectives.

/// One configuration's position in objective space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Objectives {
    /// End-to-end speedup over the GPU baseline (maximise).
    pub speedup: f64,
    /// Cluster area as % of the GPU die (minimise).
    pub area_pct: f64,
    /// Cluster power as % of GPU TDP (minimise).
    pub power_pct: f64,
}

impl Objectives {
    /// Strict Pareto dominance: no worse on all objectives, strictly
    /// better on at least one. Equal points do not dominate each other.
    pub fn dominates(&self, other: &Objectives) -> bool {
        let no_worse = self.speedup >= other.speedup
            && self.area_pct <= other.area_pct
            && self.power_pct <= other.power_pct;
        let strictly_better = self.speedup > other.speedup
            || self.area_pct < other.area_pct
            || self.power_pct < other.power_pct;
        no_worse && strictly_better
    }
}

/// Budget constraints an architect imposes before reading the frontier,
/// e.g. "area ≤ 3% of the GPU die, power ≤ 5% of TDP".
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Constraints {
    /// Upper bound on area (% of GPU die).
    pub max_area_pct: Option<f64>,
    /// Upper bound on power (% of GPU TDP).
    pub max_power_pct: Option<f64>,
    /// Lower bound on speedup.
    pub min_speedup: Option<f64>,
}

impl Constraints {
    /// No bounds at all.
    pub const NONE: Constraints =
        Constraints { max_area_pct: None, max_power_pct: None, min_speedup: None };

    /// Whether a point satisfies every configured bound.
    pub fn admits(&self, o: &Objectives) -> bool {
        self.max_area_pct.is_none_or(|b| o.area_pct <= b)
            && self.max_power_pct.is_none_or(|b| o.power_pct <= b)
            && self.min_speedup.is_none_or(|b| o.speedup >= b)
    }

    /// Whether any bound is configured.
    pub fn is_constrained(&self) -> bool {
        self != &Constraints::NONE
    }

    /// Set the bound whose spec-file key is `key` (`max_area_pct`,
    /// `max_power_pct` or `min_speedup`) to the number `text`: the one
    /// setter of the `[constraints]` lines and of `dse`'s bound flags.
    /// A bound must be finite, and an area or power budget must not be
    /// negative.
    pub fn set(&mut self, key: &str, text: &str) -> Result<(), String> {
        let (bound, budget) = match key {
            "max_area_pct" => (&mut self.max_area_pct, true),
            "max_power_pct" => (&mut self.max_power_pct, true),
            "min_speedup" => (&mut self.min_speedup, false),
            _ => return Err(format!("unknown constraint `{key}`")),
        };
        let b: f64 = text.parse().map_err(|_| format!("{key}: not a number: `{text}`"))?;
        if !b.is_finite() {
            return Err(format!("{key}: bound must be a finite number, got {b}"));
        }
        if budget && b < 0.0 {
            return Err(format!("{key}: budget must not be negative, got {b}"));
        }
        *bound = Some(b);
        Ok(())
    }
}

/// An incremental Pareto frontier: points stream in one at a time and
/// the structure maintains exactly the non-dominated set seen so far.
///
/// Each insert checks the candidate against the *current frontier only*
/// (dominated candidates are rejected, newly dominated members are
/// evicted in the same pass), so a full pass over `n` points costs
/// `O(n·f)` with `f` the running frontier size, and a guided searcher
/// keeps its archive current without ever materialising the visited
/// set's objectives. Exact ties on all three objectives are all kept
/// (equal points do not dominate each other).
///
/// Most candidates of a sweep are dominated, and neighbours in spec
/// order tend to be dominated by the same member, so the frontier
/// remembers the position of the member that last rejected a candidate
/// and tests it first (Kung, Luccio & Preparata, JACM 1975): a rejection
/// usually costs one comparison instead of a scan up to its dominator.
/// Only a miss scans the members in insertion order, and the dominator
/// that scan finds becomes the new hint. The hint orders the scan and
/// nothing else, so which candidates are accepted and evicted, the
/// survivors' order and the `frontier.*` counts do not depend on it; an
/// eviction may leave it stale, past the end or on another member,
/// which costs at most one wasted comparison.
#[derive(Debug, Clone, Default)]
pub struct StreamingFrontier<T> {
    entries: Vec<(Objectives, T)>,
    /// Position of the member that last rejected a candidate.
    hint: usize,
}

impl<T> StreamingFrontier<T> {
    /// An empty frontier.
    pub fn new() -> Self {
        StreamingFrontier { entries: Vec::new(), hint: 0 }
    }

    /// Position of a member that dominates `objectives`, if any: the
    /// hinted member first, then the rest in insertion order.
    fn dominator(&self, objectives: &Objectives) -> Option<usize> {
        if self.entries.get(self.hint).is_some_and(|(o, _)| o.dominates(objectives)) {
            return Some(self.hint);
        }
        self.entries.iter().position(|(o, _)| o.dominates(objectives))
    }

    /// Whether a current member dominates `objectives`, so that
    /// [`StreamingFrontier::insert`] would reject them: the hinted
    /// member is tested first, and the dominator found becomes the hint,
    /// as in `insert`. Changes nothing else.
    pub fn rejects(&mut self, objectives: &Objectives) -> bool {
        let Some(at) = self.dominator(objectives) else { return false };
        self.hint = at;
        true
    }

    /// Offer one point. Returns `true` if it joined the frontier
    /// (i.e. no current member dominates it); members it dominates are
    /// evicted. Accepted offers count into `frontier.inserts`, each
    /// eviction into `frontier.prunes` — the churn pair that tells a
    /// trace reader whether a search kept improving or went flat.
    pub fn insert(&mut self, objectives: Objectives, payload: T) -> bool {
        if self.rejects(&objectives) {
            return false;
        }
        let before = self.entries.len();
        self.entries.retain(|(o, _)| !objectives.dominates(o));
        let evicted = before - self.entries.len();
        if evicted > 0 {
            crate::obs_counters::frontier_prunes().add(evicted as u64);
        }
        crate::obs_counters::frontier_inserts().incr();
        self.entries.push((objectives, payload));
        true
    }

    /// Offer one point only if `constraints` admit it.
    pub fn insert_constrained(
        &mut self,
        objectives: Objectives,
        payload: T,
        constraints: &Constraints,
    ) -> bool {
        constraints.admits(&objectives) && self.insert(objectives, payload)
    }

    /// Fold `later`'s survivors into this frontier, in their insertion
    /// order. When every point offered to `later` came after every point
    /// offered to `self`, the result is the frontier of one pass over
    /// both, in the same order: the maxima of a union are the maxima of
    /// the union of each part's maxima (Kung, Luccio & Preparata, JACM
    /// 1975), survivors keep their insertion order, and exact ties are
    /// all kept either way. The re-inserted survivors count into
    /// `frontier.inserts` and `frontier.prunes` again.
    pub fn merge(&mut self, later: StreamingFrontier<T>) {
        for (objectives, payload) in later.entries {
            self.insert(objectives, payload);
        }
    }

    /// Current frontier size.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no point has survived (or been offered).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate the frontier in insertion order (survivors only).
    pub fn iter(&self) -> impl Iterator<Item = &(Objectives, T)> {
        self.entries.iter()
    }

    /// Consume the frontier, yielding the surviving payloads in
    /// insertion order.
    pub fn into_payloads(self) -> Vec<T> {
        self.entries.into_iter().map(|(_, p)| p).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn o(speedup: f64, area_pct: f64, power_pct: f64) -> Objectives {
        Objectives { speedup, area_pct, power_pct }
    }

    /// Indices the streaming frontier keeps, ascending.
    fn streamed(objs: &[Objectives], constraints: &Constraints) -> Vec<usize> {
        let mut f = StreamingFrontier::new();
        for (i, &ob) in objs.iter().enumerate() {
            f.insert_constrained(ob, i, constraints);
        }
        let mut kept = f.into_payloads();
        kept.sort_unstable();
        kept
    }

    /// The all-pairs definition: admitted points no admitted point
    /// dominates.
    fn oracle(objs: &[Objectives], constraints: &Constraints) -> Vec<usize> {
        let admitted = |ob: &Objectives| constraints.admits(ob);
        (0..objs.len())
            .filter(|&i| {
                admitted(&objs[i]) && !objs.iter().any(|ob| admitted(ob) && ob.dominates(&objs[i]))
            })
            .collect()
    }

    #[test]
    fn dominance_is_strict() {
        assert!(o(2.0, 1.0, 1.0).dominates(&o(1.0, 1.0, 1.0)));
        assert!(o(1.0, 0.5, 1.0).dominates(&o(1.0, 1.0, 1.0)));
        assert!(!o(1.0, 1.0, 1.0).dominates(&o(1.0, 1.0, 1.0)), "equal points");
        assert!(!o(2.0, 2.0, 1.0).dominates(&o(1.0, 1.0, 1.0)), "trade-off");
    }

    #[test]
    fn frontier_of_a_chain_is_its_best_point() {
        // Strictly improving chain: only the last survives.
        let objs = vec![o(1.0, 3.0, 3.0), o(2.0, 2.0, 2.0), o(3.0, 1.0, 1.0)];
        assert_eq!(streamed(&objs, &Constraints::NONE), vec![2]);
    }

    #[test]
    fn trade_offs_are_all_kept() {
        let objs = vec![o(3.0, 3.0, 1.0), o(2.0, 2.0, 2.0), o(1.0, 1.0, 3.0)];
        assert_eq!(streamed(&objs, &Constraints::NONE), vec![0, 1, 2]);
    }

    #[test]
    fn exact_ties_are_all_kept() {
        let objs = vec![o(2.0, 1.0, 1.0), o(2.0, 1.0, 1.0), o(1.0, 2.0, 2.0)];
        assert_eq!(streamed(&objs, &Constraints::NONE), vec![0, 1]);
    }

    #[test]
    fn constraints_filter_before_the_frontier() {
        // The unconstrained winner busts the area budget; under the
        // budget the dominated-by-it point becomes frontier.
        let objs = vec![o(10.0, 8.0, 2.0), o(5.0, 2.0, 2.0)];
        assert_eq!(streamed(&objs, &Constraints::NONE), vec![0, 1]);
        let budget = Constraints { max_area_pct: Some(3.0), ..Constraints::default() };
        assert_eq!(streamed(&objs, &budget), vec![1]);
        assert!(budget.is_constrained());
        assert!(!Constraints::NONE.is_constrained());
        assert!(Constraints::NONE.admits(&objs[0]));
    }

    #[test]
    fn empty_input_gives_empty_frontier() {
        assert!(streamed(&[], &Constraints::NONE).is_empty());
    }

    #[test]
    fn streaming_frontier_evicts_and_rejects() {
        let mut f = StreamingFrontier::new();
        assert!(f.is_empty());
        assert!(f.insert(o(1.0, 2.0, 2.0), "weak"));
        // A dominating point evicts the weak one.
        assert!(f.insert(o(2.0, 1.0, 1.0), "strong"));
        assert_eq!(f.len(), 1);
        // A dominated candidate is rejected outright...
        assert!(!f.insert(o(1.5, 1.5, 1.5), "late"));
        // ... an exact tie is kept alongside.
        assert!(f.insert(o(2.0, 1.0, 1.0), "tie"));
        // ... and a trade-off joins.
        assert!(f.insert(o(3.0, 5.0, 5.0), "big"));
        let mut payloads = f.into_payloads();
        payloads.sort_unstable();
        assert_eq!(payloads, vec!["big", "strong", "tie"]);
    }

    #[test]
    fn streaming_frontier_respects_constraints() {
        let budget = Constraints { max_area_pct: Some(3.0), ..Constraints::default() };
        let mut f = StreamingFrontier::new();
        assert!(!f.insert_constrained(o(10.0, 8.0, 2.0), 0usize, &budget), "over budget");
        assert!(f.insert_constrained(o(5.0, 2.0, 2.0), 1usize, &budget));
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn streaming_frontier_matches_the_all_pairs_oracle() {
        // A mixed cloud with chains, trade-offs and exact ties.
        let objs = vec![
            o(1.0, 3.0, 3.0),
            o(2.0, 2.0, 2.0),
            o(3.0, 1.0, 1.0),
            o(3.0, 1.0, 1.0), // exact tie with the previous
            o(0.5, 0.5, 9.0),
            o(9.0, 9.0, 0.5),
        ];
        for c in [Constraints::NONE, Constraints { max_area_pct: Some(2.5), ..Constraints::NONE }] {
            assert_eq!(streamed(&objs, &c), oracle(&objs, &c), "{c:?}");
        }
    }

    #[test]
    fn a_stale_hint_changes_no_decision() {
        let objs = [
            o(1.0, 1.0, 5.0),
            o(2.0, 2.0, 4.0),
            o(3.0, 3.0, 1.0),
            o(2.5, 3.5, 1.5), // 3: rejected by 2 only, which becomes the hint
            o(2.0, 1.0, 4.0), // 4: evicts 0 and 1, so the hint is past the end
            o(2.9, 3.2, 1.2), // 5: rejected by 2, now at position 0
            o(1.5, 1.5, 4.5), // 6: rejected by 4, at position 1
            o(3.0, 2.5, 1.0), // 7: evicts 2, so the hint points at 7
            o(1.8, 1.2, 4.2), // 8: rejected by 4 (position 0), not by 7
            o(3.0, 2.5, 1.0), // 9: an exact tie with 7 joins
            o(0.5, 0.5, 9.0), // 10: a trade-off joins
        ];
        let mut f = StreamingFrontier::new();
        let mut offers = objs.iter().copied().enumerate();
        for (i, ob) in offers.by_ref().take(4) {
            f.insert(ob, i);
        }
        assert_eq!(f.hint, 2);
        let (i, ob) = offers.next().unwrap();
        assert!(f.insert(ob, i));
        assert!(f.hint >= f.len(), "hint {} of {} members", f.hint, f.len());
        for (i, ob) in offers.by_ref().take(2) {
            assert!(!f.insert(ob, i), "{i} is dominated");
        }
        assert_eq!(f.hint, 1);
        let (i, ob) = offers.next().unwrap();
        assert!(f.insert(ob, i));
        assert_eq!(f.entries[f.hint].1, 7, "the hint now names another member");
        for (i, ob) in offers {
            assert_eq!(f.insert(ob, i), i != 8, "{i}");
        }
        let kept: Vec<usize> = f.iter().map(|&(_, i)| i).collect();
        assert_eq!(kept, vec![4, 7, 9, 10]);
        assert_eq!(streamed(&objs, &Constraints::NONE), oracle(&objs, &Constraints::NONE));
    }

    /// `objs` offered in order to one frontier, as (payload, objective
    /// bits) in survivor order.
    fn one_pass(objs: &[Objectives], c: &Constraints) -> Vec<(usize, [u64; 3])> {
        let mut f = StreamingFrontier::new();
        for (i, &ob) in objs.iter().enumerate() {
            f.insert_constrained(ob, i, c);
        }
        survivors(f)
    }

    fn survivors(f: StreamingFrontier<usize>) -> Vec<(usize, [u64; 3])> {
        f.iter()
            .map(|(o, i)| (*i, [o.speedup, o.area_pct, o.power_pct].map(f64::to_bits)))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Splitting a stream into consecutive parts, one frontier each,
        /// and merging them in part order keeps what one pass keeps, in
        /// the same order, exact ties included.
        #[test]
        fn merged_parts_equal_one_pass(
            coords in prop::collection::vec(0u8..6, 0..150),
            ties in prop::collection::vec(0usize..1000, 0..20),
            cuts in prop::collection::vec(0usize..1000, 0..6),
            max_area in 0u8..6,
            max_power in 0u8..6,
        ) {
            // A coarse grid makes exact ties and dominance chains common;
            // `ties` splices in more copies of existing points.
            let mut objs: Vec<Objectives> = coords
                .chunks_exact(3)
                .map(|c| o(c[0] as f64, c[1] as f64, c[2] as f64))
                .collect();
            if !objs.is_empty() {
                for &t in &ties {
                    let copy = objs[t % objs.len()];
                    objs.insert(t % (objs.len() + 1), copy);
                }
            }
            let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (objs.len() + 1)).collect();
            bounds.push(0);
            bounds.push(objs.len());
            bounds.sort_unstable();
            let budget = Constraints {
                max_area_pct: Some(max_area as f64),
                max_power_pct: Some(max_power as f64),
                ..Constraints::NONE
            };
            for c in [Constraints::NONE, budget] {
                let mut merged = StreamingFrontier::new();
                for part in bounds.windows(2) {
                    let mut f = StreamingFrontier::new();
                    for (i, &ob) in objs.iter().enumerate().take(part[1]).skip(part[0]) {
                        f.insert_constrained(ob, i, &c);
                    }
                    merged.merge(f);
                }
                prop_assert_eq!(survivors(merged), one_pass(&objs, &c));
            }
        }
    }
}
