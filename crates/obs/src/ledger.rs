//! The read side of the event ledger: parse, profile, check, export.
//!
//! A ledger is the text [`crate::sink::finish`] returned for one run,
//! but the file handed to `dse trace` is input from outside the
//! program. [`Ledger::read`] therefore parses leniently: every line
//! that is a well-formed flat JSON object becomes an [`Event`];
//! anything else (a truncated file, stray garbage) is counted in
//! [`Ledger::skipped_lines`] and ignored, and [`LedgerCheck::ok`]
//! rejects it.
//!
//! From the events we rebuild what the run measured:
//!
//! * [`Ledger::profile`] — per-stage aggregates (calls, total, self
//!   time) reconstructed by replaying `sb`/`se` through one stack per
//!   thread.
//! * [`Ledger::check`] — the run health verdict: is there a root span,
//!   do spans balance, do the named stages cover the root span's wall
//!   time, and does `eval.ticks == sweep.points` hold if the run swept
//!   points (a skipped or doubled chunk of work breaks it).
//! * [`Ledger::chrome_trace`] — the same events as Chrome
//!   `trace.json` (open in chrome://tracing or ui.perfetto.dev).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::json_escape;

/// One parsed ledger event: the `ev` discriminator plus its fields.
/// Fields are flat — strings or unsigned integers — by construction
/// of the writer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    fields: BTreeMap<String, Field>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Field {
    Num(u64),
    Str(String),
}

impl Event {
    /// The event kind (`sb`, `se`, `ctr`), or `""`.
    pub fn kind(&self) -> &str {
        self.str_field("ev").unwrap_or("")
    }

    /// A string field, when present and a string.
    pub fn str_field(&self, name: &str) -> Option<&str> {
        match self.fields.get(name)? {
            Field::Str(s) => Some(s),
            Field::Num(_) => None,
        }
    }

    /// A numeric field, when present and a number.
    pub fn num_field(&self, name: &str) -> Option<u64> {
        match self.fields.get(name)? {
            Field::Num(n) => Some(*n),
            Field::Str(_) => None,
        }
    }
}

/// Parse one line as a flat JSON object (string and unsigned-integer
/// values only — the only shapes the writer produces). `None` on
/// anything else; callers treat that as a skippable line.
fn parse_event(line: &str) -> Option<Event> {
    let mut chars = line.trim().char_indices().peekable();
    let s = line.trim();
    let mut fields = BTreeMap::new();

    fn skip_ws(chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>) {
        while chars.next_if(|&(_, c)| c.is_ascii_whitespace()).is_some() {}
    }
    fn parse_string(
        s: &str,
        chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>,
    ) -> Option<String> {
        let (_, quote) = chars.next()?;
        if quote != '"' {
            return None;
        }
        let mut out = String::new();
        loop {
            let (_, c) = chars.next()?;
            match c {
                '"' => return Some(out),
                '\\' => {
                    let (i, esc) = chars.next()?;
                    match esc {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        '/' => out.push('/'),
                        'n' => out.push('\n'),
                        't' => out.push('\t'),
                        'r' => out.push('\r'),
                        'u' => {
                            let hex = s.get(i + 1..i + 5)?;
                            let code = u32::from_str_radix(hex, 16).ok()?;
                            out.push(char::from_u32(code)?);
                            for _ in 0..4 {
                                chars.next()?;
                            }
                        }
                        _ => return None,
                    }
                }
                c => out.push(c),
            }
        }
    }

    skip_ws(&mut chars);
    let (_, open) = chars.next()?;
    if open != '{' {
        return None;
    }
    skip_ws(&mut chars);
    if chars.next_if(|&(_, c)| c == '}').is_some() {
        skip_ws(&mut chars);
        return chars.next().is_none().then_some(Event { fields });
    }
    loop {
        skip_ws(&mut chars);
        let key = parse_string(s, &mut chars)?;
        skip_ws(&mut chars);
        let (_, colon) = chars.next()?;
        if colon != ':' {
            return None;
        }
        skip_ws(&mut chars);
        let value = match chars.peek()? {
            (_, '"') => Field::Str(parse_string(s, &mut chars)?),
            (_, c) if c.is_ascii_digit() => {
                let mut n: u64 = 0;
                while let Some((_, d)) = chars.next_if(|&(_, c)| c.is_ascii_digit()) {
                    n = n.checked_mul(10)?.checked_add(d as u64 - '0' as u64)?;
                }
                Field::Num(n)
            }
            _ => return None,
        };
        fields.insert(key, value);
        skip_ws(&mut chars);
        match chars.next()? {
            (_, ',') => continue,
            (_, '}') => break,
            _ => return None,
        }
    }
    skip_ws(&mut chars);
    chars.next().is_none().then_some(Event { fields })
}

/// A parsed ledger: the event stream plus what had to be skipped.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Events in file order.
    pub events: Vec<Event>,
    /// Lines that did not parse as events.
    pub skipped_lines: usize,
}

/// Per-stage aggregate reconstructed from the ledger, one per span
/// path (summed across threads).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageProfile {
    /// `/`-joined span path, e.g. `dse/sweep/evaluate`.
    pub path: String,
    /// Spans closed at this path.
    pub calls: u64,
    /// Sum of span durations, microseconds.
    pub total_us: u64,
    /// Total minus time in child spans, microseconds.
    pub self_us: u64,
}

/// The verdict of [`Ledger::check`].
#[derive(Debug, Clone, Default)]
pub struct LedgerCheck {
    /// Span paths opened (`sb`) but never closed (`se`), or closed out
    /// of order. Empty means every span balanced.
    pub unbalanced: Vec<String>,
    /// Fraction of the largest root span's wall time spent inside
    /// named child stages (1 − self/total). The acceptance bar is
    /// ≥ 0.95; a ledger with no root spans reports 0.
    pub coverage: f64,
    /// Path and total of the root span coverage was measured on.
    pub root: Option<(String, u64)>,
    /// The run's final `(eval.ticks, sweep.points)`, when it swept
    /// points; the invariant is that the two are equal.
    pub sweep: Option<(u64, u64)>,
    /// [`Ledger::skipped_lines`]: a written ledger has none.
    pub skipped_lines: usize,
}

impl LedgerCheck {
    /// Whether the run swept points and counted a different number of
    /// evaluations.
    pub fn invariant_violated(&self) -> bool {
        self.sweep.is_some_and(|(ticks, points)| ticks != points)
    }

    /// Overall verdict at a given coverage floor: a ledger with no root
    /// span, or with lines that did not parse, records no whole run.
    pub fn ok(&self, coverage_min: f64) -> bool {
        self.root.is_some()
            && self.skipped_lines == 0
            && self.unbalanced.is_empty()
            && !self.invariant_violated()
            && self.coverage >= coverage_min
    }
}

impl Ledger {
    /// Read and parse a ledger file leniently.
    pub fn read(path: &Path) -> io::Result<Ledger> {
        let bytes = std::fs::read(path)?;
        Ok(Self::parse(&String::from_utf8_lossy(&bytes)))
    }

    /// Parse ledger text leniently: unparseable lines are counted, not
    /// fatal.
    pub fn parse(text: &str) -> Ledger {
        let mut ledger = Ledger::default();
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            match parse_event(line) {
                Some(ev) => ledger.events.push(ev),
                None => ledger.skipped_lines += 1,
            }
        }
        ledger
    }

    /// Iterate events of one kind.
    pub fn of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a Event> {
        self.events.iter().filter(move |e| e.kind() == kind)
    }

    /// Final value of every counter: the last `ctr` event wins for
    /// each name.
    pub fn final_counters(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for ev in self.of_kind("ctr") {
            if let (Some(name), Some(val)) = (ev.str_field("name"), ev.num_field("val")) {
                out.insert(name.to_string(), val);
            }
        }
        out
    }

    /// Rebuild the per-stage profile by replaying `sb`/`se` through a
    /// stack per thread: self time is a span's duration minus its
    /// direct children's. Unbalanced events are tolerated here
    /// (dropped); [`Ledger::check`] is where they become errors.
    pub fn profile(&self) -> Vec<StageProfile> {
        // Per-tid stack of (path, child_us).
        let mut stacks: BTreeMap<u64, Vec<(String, u64)>> = BTreeMap::new();
        let mut agg: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
        for ev in self.events.iter() {
            let key = ev.num_field("tid").unwrap_or(0);
            match ev.kind() {
                "sb" => {
                    if let Some(path) = ev.str_field("path") {
                        stacks.entry(key).or_default().push((path.to_string(), 0));
                    }
                }
                "se" => {
                    let (Some(path), Some(dur)) = (ev.str_field("path"), ev.num_field("dur"))
                    else {
                        continue;
                    };
                    let stack = stacks.entry(key).or_default();
                    // Only a close matching the innermost open counts;
                    // anything else is an imbalance check() will flag.
                    if stack.last().is_some_and(|(top, _)| top == path) {
                        let (_, child_us) = stack.pop().expect("guarded by last()");
                        if let Some((_, parent_child)) = stack.last_mut() {
                            *parent_child += dur;
                        }
                        let entry = agg.entry(path.to_string()).or_default();
                        entry.0 += 1;
                        entry.1 += dur;
                        entry.2 += dur.saturating_sub(child_us);
                    }
                }
                _ => {}
            }
        }
        agg.into_iter()
            .map(|(path, (calls, total_us, self_us))| StageProfile {
                path,
                calls,
                total_us,
                self_us,
            })
            .collect()
    }

    /// Run the health checks: span balance, stage coverage of the
    /// largest root span, and the sweep-accounting invariant.
    pub fn check(&self) -> LedgerCheck {
        let mut check = LedgerCheck { skipped_lines: self.skipped_lines, ..Default::default() };

        // Balance: replay stacks; a close must match the innermost open.
        let mut stacks: BTreeMap<u64, Vec<String>> = BTreeMap::new();
        for ev in self.events.iter() {
            let key = ev.num_field("tid").unwrap_or(0);
            match ev.kind() {
                "sb" => {
                    if let Some(path) = ev.str_field("path") {
                        stacks.entry(key).or_default().push(path.to_string());
                    }
                }
                "se" => {
                    let Some(path) = ev.str_field("path") else { continue };
                    let stack = stacks.entry(key).or_default();
                    if stack.last().is_some_and(|top| top == path) {
                        stack.pop();
                    } else {
                        check.unbalanced.push(format!("close without matching open: {path}"));
                    }
                }
                _ => {}
            }
        }
        for (_, stack) in stacks {
            for path in stack {
                check.unbalanced.push(format!("open without close: {path}"));
            }
        }
        check.unbalanced.sort();
        check.unbalanced.dedup();

        // Coverage: on the largest root span (the run's root on the main
        // thread), how much wall time did named child stages account
        // for? 1 − self/total, from the reconstructed profile.
        let profile = self.profile();
        if let Some(root) =
            profile.iter().filter(|p| !p.path.contains('/')).max_by_key(|p| p.total_us)
        {
            check.root = Some((root.path.clone(), root.total_us));
            if root.total_us > 0 {
                check.coverage = 1.0 - (root.self_us as f64 / root.total_us as f64);
            }
        }

        // Invariant: a sweep evaluated every point exactly once.
        let counters = self.final_counters();
        if let Some(&points) = counters.get("sweep.points").filter(|&&points| points > 0) {
            check.sweep = Some((counters.get("eval.ticks").copied().unwrap_or(0), points));
        }
        check
    }

    /// Export the span events as Chrome `trace.json` (a JSON array of
    /// `B`/`E` duration events, timestamps in microseconds), loadable
    /// in chrome://tracing or ui.perfetto.dev.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("[\n");
        let mut first = true;
        for ev in self.events.iter() {
            let ph = match ev.kind() {
                "sb" => "B",
                "se" => "E",
                _ => continue,
            };
            let Some(path) = ev.str_field("path") else { continue };
            let name = path.rsplit('/').next().unwrap_or(path);
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"dse\",\"ph\":\"{ph}\",\"ts\":{},\
                 \"pid\":{},\"tid\":{}}}",
                json_escape(name),
                ev.num_field("ts").unwrap_or(0),
                ev.num_field("pid").unwrap_or(0),
                ev.num_field("tid").unwrap_or(0),
            );
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sb(tid: u64, path: &str, ts: u64) -> String {
        format!("{{\"ev\":\"sb\",\"ts\":{ts},\"pid\":1,\"tid\":{tid},\"path\":\"{path}\"}}")
    }
    fn se(tid: u64, path: &str, ts: u64, dur: u64) -> String {
        format!(
            "{{\"ev\":\"se\",\"ts\":{ts},\"pid\":1,\"tid\":{tid},\
             \"path\":\"{path}\",\"dur\":{dur}}}"
        )
    }
    fn ctr(name: &str, val: u64) -> String {
        format!("{{\"ev\":\"ctr\",\"ts\":0,\"pid\":1,\"name\":\"{name}\",\"val\":{val}}}")
    }

    #[test]
    fn parses_writer_shapes_and_skips_garbage() {
        let text = [
            "{\"ev\":\"sb\",\"ts\":1,\"pid\":7,\"tid\":0,\"path\":\"quick \\\"q\\\"\"}",
            "",
            "not json",
            "{\"ev\":\"ctr\",\"ts\":2,\"pid\":7,\"name\":\"sweep.points\",\"val\":128}",
            "{\"ev\":\"sb\",\"ts\":3,\"pid\":7,\"tid\":0,\"pa", // torn tail
        ]
        .join("\n");
        let ledger = Ledger::parse(&text);
        assert_eq!(ledger.events.len(), 2);
        assert_eq!(ledger.skipped_lines, 2);
        assert_eq!(ledger.events[0].str_field("path"), Some("quick \"q\""));
        assert_eq!(ledger.events[1].num_field("val"), Some(128));
    }

    #[test]
    fn profile_charges_self_time_per_thread() {
        // root(100) wrapping child(60), plus a second thread's root.
        let text = [
            sb(0, "dse", 0),
            sb(0, "dse/sweep", 10),
            sb(1, "dse", 20),
            se(0, "dse/sweep", 70, 60),
            se(1, "dse", 60, 40),
            se(0, "dse", 100, 100),
        ]
        .join("\n");
        let profile = Ledger::parse(&text).profile();
        let root = profile.iter().find(|p| p.path == "dse").unwrap();
        assert_eq!((root.calls, root.total_us, root.self_us), (2, 140, 80));
        let sweep = profile.iter().find(|p| p.path == "dse/sweep").unwrap();
        assert_eq!((sweep.calls, sweep.total_us, sweep.self_us), (1, 60, 60));
    }

    #[test]
    fn check_flags_imbalance_and_measures_coverage() {
        let balanced = [
            sb(0, "dse", 0),
            sb(0, "dse/sweep", 0),
            se(0, "dse/sweep", 96, 96),
            se(0, "dse", 100, 100),
        ]
        .join("\n");
        let check = Ledger::parse(&balanced).check();
        assert!(check.unbalanced.is_empty());
        assert!((check.coverage - 0.96).abs() < 1e-9);
        assert!(check.ok(0.95));
        assert!(!check.ok(0.97));

        let torn = [sb(0, "dse", 0), sb(0, "dse/sweep", 0), se(0, "dse", 100, 100)].join("\n");
        let check = Ledger::parse(&torn).check();
        assert!(!check.unbalanced.is_empty());
        assert!(!check.ok(0.0));
    }

    /// `dse trace --check --min-coverage 0` must not pass a file that
    /// records no run: an empty file, unparseable lines, or counters
    /// without any span.
    #[test]
    fn check_rejects_a_ledger_with_no_run() {
        let counters_only = [ctr("sweep.points", 16), ctr("eval.ticks", 16)].join("\n");
        for text in ["", "not json\n{\"ev\":\"sb\",\"ts\":3,\"pa", &counters_only] {
            let check = Ledger::parse(text).check();
            assert!(check.root.is_none(), "{text:?}");
            assert!(!check.ok(0.0), "{text:?} passed the check");
        }

        // A whole run with one foreign line appended is no longer the
        // ledger the run wrote.
        let run = [sb(0, "dse", 0), se(0, "dse", 100, 100), "garbage".to_string()].join("\n");
        let check = Ledger::parse(&run).check();
        assert_eq!(check.skipped_lines, 1);
        assert!(check.unbalanced.is_empty() && check.root.is_some());
        assert!(!check.ok(0.0));
    }

    #[test]
    fn counter_invariant_reads_the_final_values() {
        let run = |lines: &[String]| {
            let mut text = vec![sb(0, "dse", 0), se(0, "dse", 100, 100)];
            text.extend_from_slice(lines);
            Ledger::parse(&text.join("\n")).check()
        };
        // Cumulative values: the last line per name wins.
        let good = run(&[
            ctr("sweep.points", 10),
            ctr("eval.ticks", 10),
            ctr("sweep.points", 100),
            ctr("eval.ticks", 100),
        ]);
        assert_eq!(good.sweep, Some((100, 100)));
        assert!(!good.invariant_violated());
        assert!(good.ok(0.0));

        // A search ticks without sweeping: there is no sweep to check.
        let search = run(&[ctr("eval.ticks", 36)]);
        assert_eq!(search.sweep, None);
        assert!(search.ok(0.0));

        // A doubled chunk: ticks overshoot.
        let bad = run(&[ctr("sweep.points", 100), ctr("eval.ticks", 160)]);
        assert_eq!(bad.sweep, Some((160, 100)));
        assert!(bad.invariant_violated());
        assert!(!bad.ok(0.0));
    }

    #[test]
    fn counter_invariant_fails_when_ticks_fall_short() {
        // A skipped chunk: fewer ticks than points, or none at all.
        for (ticks, seen) in [(vec![ctr("eval.ticks", 96)], 96), (vec![], 0)] {
            let mut text = vec![sb(0, "dse", 0), se(0, "dse", 100, 100), ctr("sweep.points", 100)];
            text.extend(ticks);
            let check = Ledger::parse(&text.join("\n")).check();
            assert_eq!(check.sweep, Some((seen, 100)));
            assert!(check.invariant_violated());
            assert!(!check.ok(0.0));
        }
    }

    #[test]
    fn chrome_trace_pairs_b_and_e() {
        let text = [sb(0, "dse/sweep", 5), se(0, "dse/sweep", 25, 20)].join("\n");
        let trace = Ledger::parse(&text).chrome_trace();
        assert!(trace.trim_start().starts_with('['));
        assert!(trace.trim_end().ends_with(']'));
        assert!(trace.contains("\"ph\":\"B\""));
        assert!(trace.contains("\"ph\":\"E\""));
        // Chrome names use the leaf segment.
        assert!(trace.contains("\"name\":\"sweep\""));
    }
}
