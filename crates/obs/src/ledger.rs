//! The run ledger: typed events, their JSONL form, and what a run's
//! events say — profile, check, export.
//!
//! A [`Ledger`] is the [`Event`]s one run recorded ([`crate::sink::finish`]
//! returns it) or read back from a file. Its `Display` is the JSONL
//! text, one event per line; [`Ledger::parse`] and [`Ledger::read`] are
//! its inverse. A file handed to `dse trace` is input from outside the
//! program, so they parse leniently: a line that is not a flat JSON
//! object, names no event kind, or lacks a field of its kind (or has
//! one of the wrong type) is counted in [`Ledger::skipped_lines`] and
//! ignored, and [`LedgerCheck::ok`] rejects it.
//!
//! From the events we rebuild what the run measured, by replaying the
//! span events through one stack per thread, once:
//!
//! * [`Ledger::profile`] — per-stage aggregates (calls, total, self
//!   time).
//! * [`Ledger::check`] — the run health verdict: is there a root span,
//!   do spans balance, do the named stages cover the root span's wall
//!   time, and does `eval.ticks == sweep.points` hold if the run swept
//!   points (a skipped or doubled chunk of work breaks it).
//! * [`Ledger::chrome_trace`] — the span events as Chrome `trace.json`
//!   (open in chrome://tracing or ui.perfetto.dev).

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::io;
use std::iter::Peekable;
use std::path::Path;
use std::str::Chars;

/// One ledger event, written as one JSON object per line and
/// discriminated by `ev`. `ts` is wall-clock microseconds since the
/// epoch ([`crate::epoch_us`]); `dur` is measured monotonically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// `sb`: span `path` opened on thread `tid`.
    SpanBegin { ts: u64, pid: u64, tid: u64, path: String },
    /// `se`: span `path` closed on thread `tid` after `dur` µs.
    SpanEnd { ts: u64, pid: u64, tid: u64, path: String, dur: u64 },
    /// `ctr`: counter `name`'s *cumulative* value; readers take the
    /// last value per name.
    Counter { ts: u64, pid: u64, name: String, val: u64 },
}

impl fmt::Display for Event {
    /// The event's JSONL line, without the newline.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::SpanBegin { ts, pid, tid, path } => write!(
                f,
                "{{\"ev\":\"sb\",\"ts\":{ts},\"pid\":{pid},\"tid\":{tid},\"path\":\"{}\"}}",
                Escaped(path)
            ),
            Event::SpanEnd { ts, pid, tid, path, dur } => write!(
                f,
                "{{\"ev\":\"se\",\"ts\":{ts},\"pid\":{pid},\"tid\":{tid},\"path\":\"{}\",\
                 \"dur\":{dur}}}",
                Escaped(path)
            ),
            Event::Counter { ts, pid, name, val } => write!(
                f,
                "{{\"ev\":\"ctr\",\"ts\":{ts},\"pid\":{pid},\"name\":\"{}\",\"val\":{val}}}",
                Escaped(name)
            ),
        }
    }
}

/// A string as the body of a JSON string literal (the caller writes the
/// quotes): `"`, `\` and control characters escaped. The one JSON
/// string escaper of the workspace; `ng-dse`'s emitters use it too.
pub struct Escaped<'a>(pub &'a str);

impl fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\t' => f.write_str("\\t")?,
                '\r' => f.write_str("\\r")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_char(c)?,
            }
        }
        Ok(())
    }
}

/// A cursor over one line of flat JSON: string and unsigned-integer
/// values only, the only shapes the writer produces.
struct Cursor<'a>(Peekable<Chars<'a>>);

impl Cursor<'_> {
    fn skip_ws(&mut self) {
        while self.0.next_if(char::is_ascii_whitespace).is_some() {}
    }

    /// The next non-blank character, if it is `want`.
    fn eat(&mut self, want: char) -> Option<()> {
        self.skip_ws();
        self.0.next_if_eq(&want).map(drop)
    }

    fn string(&mut self) -> Option<String> {
        self.eat('"')?;
        let mut out = String::new();
        loop {
            let c = match self.0.next()? {
                '"' => return Some(out),
                '\\' => match self.0.next()? {
                    'n' => '\n',
                    't' => '\t',
                    'r' => '\r',
                    'u' => {
                        let hex: String = (0..4).map(|_| self.0.next()).collect::<Option<_>>()?;
                        char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?
                    }
                    c @ ('"' | '\\' | '/') => c,
                    _ => return None,
                },
                c => c,
            };
            out.push(c);
        }
    }

    fn number(&mut self) -> Option<u64> {
        self.skip_ws();
        let mut n = None;
        while let Some(d) = self.0.next_if(char::is_ascii_digit) {
            let digit = u64::from(d.to_digit(10)?);
            n = Some(n.unwrap_or(0u64).checked_mul(10)?.checked_add(digit)?);
        }
        n
    }
}

/// Parse one line as an event: a flat JSON object whose keys (in any
/// order) are `ev` and the fields of its kind. `None` on anything else;
/// the caller counts that as a skipped line.
fn parse_event(line: &str) -> Option<Event> {
    let mut line = Cursor(line.chars().peekable());
    let (mut ev, mut path, mut name) = (None, None, None);
    let [mut ts, mut pid, mut tid, mut dur, mut val] = [None; 5];
    line.eat('{')?;
    loop {
        let key = line.string()?;
        line.eat(':')?;
        match key.as_str() {
            "ev" => ev = Some(line.string()?),
            "path" => path = Some(line.string()?),
            "name" => name = Some(line.string()?),
            "ts" => ts = Some(line.number()?),
            "pid" => pid = Some(line.number()?),
            "tid" => tid = Some(line.number()?),
            "dur" => dur = Some(line.number()?),
            "val" => val = Some(line.number()?),
            _ => return None,
        }
        if line.eat(',').is_none() {
            break;
        }
    }
    line.eat('}')?;
    line.skip_ws();
    if line.0.next().is_some() {
        return None;
    }
    let (ts, pid) = (ts?, pid?);
    match ev?.as_str() {
        "sb" => Some(Event::SpanBegin { ts, pid, tid: tid?, path: path? }),
        "se" => Some(Event::SpanEnd { ts, pid, tid: tid?, path: path?, dur: dur? }),
        "ctr" => Some(Event::Counter { ts, pid, name: name?, val: val? }),
        _ => None,
    }
}

/// One run's events, plus the lines a read had to skip.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Events in record (file) order.
    pub events: Vec<Event>,
    /// Lines that did not parse as events; a recorded ledger has none.
    pub skipped_lines: usize,
}

impl fmt::Display for Ledger {
    /// The JSONL text: one line per event, each newline-terminated.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.events.iter().try_for_each(|ev| writeln!(f, "{ev}"))
    }
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
    /// [`Ledger::profile`], from the same replay as the verdict.
    pub profile: Vec<StageProfile>,
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

    /// Parse ledger text leniently: blank lines are ignored and
    /// unparseable ones counted, not fatal.
    pub fn parse(text: &str) -> Ledger {
        let mut ledger = Ledger::default();
        for line in text.lines().filter(|line| !line.trim().is_empty()) {
            match parse_event(line) {
                Some(ev) => ledger.events.push(ev),
                None => ledger.skipped_lines += 1,
            }
        }
        ledger
    }

    /// Final value of every counter: the last `ctr` event wins for
    /// each name.
    pub fn final_counters(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for ev in &self.events {
            if let Event::Counter { name, val, .. } = ev {
                out.insert(name.clone(), *val);
            }
        }
        out
    }

    /// Replay the span events through one stack per thread. Returns the
    /// per-stage profile — self time is a span's duration minus its
    /// direct children's — and the spans that did not balance: a close
    /// that does not match the innermost open is reported and left out
    /// of the profile, and so is an open that never closes.
    fn replay(&self) -> (Vec<StageProfile>, Vec<String>) {
        // Per-tid stack of (path, child_us); per-path (calls, total, self).
        let mut stacks: BTreeMap<u64, Vec<(&str, u64)>> = BTreeMap::new();
        let mut agg: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        let mut unbalanced = Vec::new();
        for ev in &self.events {
            match ev {
                Event::SpanBegin { tid, path, .. } => {
                    stacks.entry(*tid).or_default().push((path, 0))
                }
                Event::SpanEnd { tid, path, dur, .. } => {
                    let stack = stacks.entry(*tid).or_default();
                    if stack.last().is_none_or(|&(top, _)| top != path) {
                        unbalanced.push(format!("close without matching open: {path}"));
                        continue;
                    }
                    let (_, child_us) = stack.pop().expect("guarded by last()");
                    if let Some((_, parent_child)) = stack.last_mut() {
                        *parent_child += dur;
                    }
                    let entry = agg.entry(path).or_default();
                    entry.0 += 1;
                    entry.1 += dur;
                    entry.2 += dur.saturating_sub(child_us);
                }
                Event::Counter { .. } => {}
            }
        }
        for (path, _) in stacks.into_values().flatten() {
            unbalanced.push(format!("open without close: {path}"));
        }
        unbalanced.sort();
        unbalanced.dedup();
        let profile = agg
            .into_iter()
            .map(|(path, (calls, total_us, self_us))| StageProfile {
                path: path.to_string(),
                calls,
                total_us,
                self_us,
            })
            .collect();
        (profile, unbalanced)
    }

    /// The per-stage profile, one entry per span path in path order.
    /// Unbalanced spans are left out; [`Ledger::check`] is where they
    /// become errors.
    pub fn profile(&self) -> Vec<StageProfile> {
        self.replay().0
    }

    /// Run the health checks: span balance, stage coverage of the
    /// largest root span, and the sweep-accounting invariant.
    pub fn check(&self) -> LedgerCheck {
        let (profile, unbalanced) = self.replay();
        let mut check =
            LedgerCheck { unbalanced, skipped_lines: self.skipped_lines, ..Default::default() };

        // Coverage: on the largest root span (the run's root on the main
        // thread), how much wall time did named child stages account
        // for? 1 − self/total.
        if let Some(root) =
            profile.iter().filter(|p| !p.path.contains('/')).max_by_key(|p| p.total_us)
        {
            if root.total_us > 0 {
                check.coverage = 1.0 - (root.self_us as f64 / root.total_us as f64);
            }
            check.root = Some((root.path.clone(), root.total_us));
        }
        check.profile = profile;

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
        for ev in &self.events {
            let (ph, ts, pid, tid, path) = match ev {
                Event::SpanBegin { ts, pid, tid, path } => ("B", ts, pid, tid, path),
                Event::SpanEnd { ts, pid, tid, path, .. } => ("E", ts, pid, tid, path),
                Event::Counter { .. } => continue,
            };
            let name = path.rsplit('/').next().unwrap_or(path);
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"dse\",\"ph\":\"{ph}\",\"ts\":{ts},\
                 \"pid\":{pid},\"tid\":{tid}}}",
                Escaped(name),
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
        assert!(
            matches!(&ledger.events[0], Event::SpanBegin { path, .. } if path == "quick \"q\"")
        );
        assert!(matches!(ledger.events[1], Event::Counter { val: 128, .. }));
    }

    /// `Ledger::parse` inverts `Display` for any string, and a line that
    /// misses a field of its kind, or has one of the wrong type, or
    /// names no kind, is skipped rather than read as half an event.
    #[test]
    fn display_and_parse_are_inverse_and_fields_are_checked() {
        let odd = "a \"q\" \\ / \n\t\r \u{1} é/leaf".to_string();
        let ledger = Ledger {
            events: vec![
                Event::SpanBegin { ts: 1, pid: 2, tid: 3, path: odd.clone() },
                Event::SpanEnd { ts: 4, pid: 2, tid: 3, path: odd.clone(), dur: u64::MAX },
                Event::Counter { ts: 5, pid: 2, name: odd, val: 0 },
            ],
            skipped_lines: 0,
        };
        let text = ledger.to_string();
        assert_eq!(text.lines().count(), 3);
        let back = Ledger::parse(&text);
        assert_eq!((back.events, back.skipped_lines), (ledger.events, 0));

        // Keys in another order, and blanks between tokens, still read.
        let reordered = "{ \"path\" : \"p\", \"tid\":3,\"pid\":2,\"ts\":1,\"ev\":\"sb\" }";
        let back = Ledger::parse(reordered);
        assert_eq!(back.events, [Event::SpanBegin { ts: 1, pid: 2, tid: 3, path: "p".into() }]);

        let broken = [
            "{\"ev\":\"se\",\"ts\":1,\"pid\":1,\"tid\":0,\"path\":\"dse\"}", // no dur
            "{\"ev\":\"sb\",\"ts\":1,\"pid\":1,\"tid\":\"0\",\"path\":\"dse\"}", // tid a string
            "{\"ev\":\"ctr\",\"ts\":1,\"pid\":1,\"name\":7,\"val\":1}",      // name a number
            "{\"ev\":\"ctr\",\"ts\":1,\"pid\":1,\"val\":1}",                 // no name
            "{\"ev\":\"xx\",\"ts\":1,\"pid\":1}",                            // no such kind
            "{\"ts\":1,\"pid\":1,\"tid\":0,\"path\":\"dse\"}",               // no kind
            "{\"ev\":\"sb\",\"ts\":1,\"pid\":1,\"tid\":0,\"path\":\"dse\",\"x\":1}", // stray key
            "{\"ev\":\"sb\",\"ts\":-1,\"pid\":1,\"tid\":0,\"path\":\"dse\"}", // signed
            "{\"ev\":\"sb\",\"ts\":1,\"pid\":1,\"tid\":0,\"path\":\"dse\"} x", // trailing
            "{}",
        ];
        let back = Ledger::parse(&broken.join("\n"));
        assert!(back.events.is_empty(), "{:?}", back.events);
        assert_eq!(back.skipped_lines, broken.len());
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
        // An inner `se` without its `dur` is a skipped line, and the
        // outer close then no longer matches the innermost open.
        let inner_end_without_dur = [
            sb(0, "dse", 0),
            sb(0, "dse/sweep", 0),
            "{\"ev\":\"se\",\"ts\":96,\"pid\":1,\"tid\":0,\"path\":\"dse/sweep\"}".to_string(),
            se(0, "dse", 100, 100),
        ]
        .join("\n");
        for (text, skipped) in [
            ("", 0),
            ("not json\n{\"ev\":\"sb\",\"ts\":3,\"pa", 2),
            (&counters_only, 0),
            (&inner_end_without_dur, 1),
        ] {
            let check = Ledger::parse(text).check();
            assert_eq!(check.skipped_lines, skipped, "{text:?}");
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
