//! "Same outputs" as a test: pins FNV-1a digests of every preset's CSV,
//! JSON, report and cross-app frontier, and of the guided searcher's
//! frontier and accounting on guided-lanes, so that a change meant to
//! keep outputs byte-identical fails here if it does not. A change to the model
//! itself updates the values below and says why; on a mismatch the
//! failure message prints the whole table as it now is.

use std::io;

use ng_dse::report::write_report;
use ng_dse::{ArchPoint, Frontiers, SearchSpec, SearchStrategy, Searcher, SweepEngine, SweepSpec};
use ng_neural::math::fnv1a64;

/// `(preset, CSV digest, cross-app frontier digest)`.
const PRESETS: [(&str, u64, u64); 6] = [
    ("quick", 0x6d88f259fc122d6d, 0xc1158963b59af0d8),
    ("paper", 0xc7429e2620d6f127, 0xba16545a5d70113f),
    ("clocks", 0x7ddb587184cdd560, 0x0d70053f51011723),
    ("resolutions", 0xc6b48187902d5717, 0x56dec31a09875f58),
    ("mac-arrays", 0x2b4afa5e406af015, 0x00fdb999dd6eb01a),
    ("guided-lanes", 0xf2457d6118f4a87b, 0x389c6d58902c10db),
];

/// `(preset, JSON digest, report digest, `--per-app` report digest)`:
/// the JSON without its `"stats":` line and each report (`dse`'s
/// default 16 rows, no constraints) without its `evaluation:` line, the
/// lines that hold the wall time and the thread count.
const OUTPUTS: [(&str, u64, u64, u64); 6] = [
    ("quick", 0xb6821b59f02faa93, 0xb4f0daf4a367a53b, 0x0ae7c266225a0255),
    ("paper", 0xb5bbe80895bf67ea, 0xf007ed5cfb7c5519, 0xfb2d6bb634de8410),
    ("clocks", 0xe7372583f6cc84e3, 0x44721c1fd9f621bd, 0xb07cee412997d8af),
    ("resolutions", 0x6dba2dcffcdee633, 0xa9b83e2d81be9b22, 0x853c758335b3ef52),
    ("mac-arrays", 0x4be78f6047635a9e, 0xc5a2e8256507a120, 0x109aa5dfac66be78),
    ("guided-lanes", 0x8230cf8d8dff418a, 0x1bd175818ce998f7, 0x68d98fba863b215b),
];

/// `(strategy, seed, frontier digest, evaluations, archs visited)` on
/// guided-lanes at the default 5%-of-space budget.
const SEARCHES: [(&str, u64, u64, usize, usize); 6] = [
    ("hill", 1, 0x389c6d58902c10db, 7588, 1897),
    ("hill", 2, 0x389c6d58902c10db, 7620, 1905),
    ("hill", 3, 0x389c6d58902c10db, 6820, 1705),
    ("evolve", 1, 0x706f6508c6bb1e75, 6796, 1699),
    ("evolve", 2, 0xb2832884c411e9eb, 6940, 1735),
    ("evolve", 3, 0x7964b2f4324d0946, 8980, 2245),
];

/// A frontier as text: one `Debug` line per architecture, whose `f64`
/// fields print as their shortest round-tripping decimal.
fn frontier_digest(frontier: &[ArchPoint]) -> u64 {
    fnv1a64(&frontier.iter().map(|a| format!("{a:?}\n")).collect::<String>())
}

#[test]
fn preset_csvs_and_frontiers_are_pinned() {
    let got: Vec<(&str, u64, u64)> = PRESETS
        .iter()
        .map(|&(name, ..)| {
            let spec = SweepSpec::preset(name).unwrap();
            let sweep = SweepEngine::new().run(&spec, false).unwrap();
            let mut csv = Vec::new();
            sweep.write_csv(&mut csv).unwrap();
            let csv = fnv1a64(std::str::from_utf8(&csv).unwrap());
            (name, csv, frontier_digest(&sweep.frontiers.cross_app))
        })
        .collect();
    let table: String =
        got.iter().map(|(n, csv, f)| format!("    (\"{n}\", {csv:#018x}, {f:#018x}),\n")).collect();
    assert!(got == PRESETS, "preset digests changed; now:\n{table}");
}

/// The FNV-1a digest of the lines written to it, leaving out each line
/// that starts with `mask`.
struct MaskedDigest {
    mask: &'static str,
    hash: u64,
    line: Vec<u8>,
}

impl MaskedDigest {
    fn new(mask: &'static str) -> Self {
        MaskedDigest { mask, hash: fnv1a64(""), line: Vec::new() }
    }

    fn finish(mut self) -> u64 {
        self.end_line();
        self.hash
    }

    fn end_line(&mut self) {
        if !self.line.starts_with(self.mask.as_bytes()) {
            for &b in &self.line {
                self.hash = (self.hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        self.line.clear();
    }
}

impl io::Write for MaskedDigest {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        for piece in buf.split_inclusive(|&b| b == b'\n') {
            self.line.extend_from_slice(piece);
            if piece.ends_with(b"\n") {
                self.end_line();
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn preset_json_and_reports_are_pinned() {
    let got: Vec<(&str, u64, u64, u64)> = OUTPUTS
        .iter()
        .map(|&(name, ..)| {
            let spec = SweepSpec::preset(name).unwrap();
            let sweep = SweepEngine::new().run(&spec, true).unwrap();
            let mut json = MaskedDigest::new("\"stats\":");
            sweep.write_json(&mut json).unwrap();
            let report = |frontiers: &Frontiers| {
                let mut out = MaskedDigest::new("evaluation:");
                write_report(&mut out, &spec, &sweep.stats, frontiers, 16).unwrap();
                out.finish()
            };
            let default = Frontiers { per_app: Vec::new(), ..sweep.frontiers.clone() };
            (name, json.finish(), report(&default), report(&sweep.frontiers))
        })
        .collect();
    let table: String = got
        .iter()
        .map(|(n, json, r, per_app)| {
            format!("    (\"{n}\", {json:#018x}, {r:#018x}, {per_app:#018x}),\n")
        })
        .collect();
    assert!(got == OUTPUTS, "preset outputs changed; now:\n{table}");
}

#[test]
fn guided_searches_are_pinned() {
    let spec = SweepSpec::guided_lanes();
    let got: Vec<(&str, u64, u64, usize, usize)> = SEARCHES
        .iter()
        .map(|&(strategy, seed, ..)| {
            let search = SearchSpec {
                strategy: SearchStrategy::parse(strategy).unwrap(),
                seed,
                ..SearchSpec::for_space(&spec)
            };
            let outcome = Searcher::new().run(&spec, &search).unwrap();
            let stats = outcome.stats;
            (
                strategy,
                seed,
                frontier_digest(&outcome.frontier),
                stats.evaluations,
                stats.archs_visited,
            )
        })
        .collect();
    let table: String = got
        .iter()
        .map(|(s, seed, f, evals, archs)| {
            format!("    (\"{s}\", {seed}, {f:#018x}, {evals}, {archs}),\n")
        })
        .collect();
    assert!(got == SEARCHES, "search digests changed; now:\n{table}");
}
