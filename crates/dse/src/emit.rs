//! Results serialisation: CSV (also the cache's on-disk format) and
//! JSON.
//!
//! Floats are written with Rust's shortest-round-trip `Display`, so a
//! parse of our own output reproduces every value bit-for-bit — which
//! is what lets the evaluation cache return results indistinguishable
//! from a fresh run.

use ng_neural::apps::{AppKind, EncodingKind};

use crate::spec::{app_slug, encoding_slug, parse_app, parse_encoding, DesignPoint, SweepSpec};
use crate::sweep::{ArchPoint, EvaluatedPoint, SweepOutcome};

/// Column header of the points CSV.
pub const CSV_HEADER: &str = "index,app,encoding,pixels,nfp_units,clock_ghz,grid_sram_kb,\
                              grid_sram_banks,encoding_engines,mac_rows,mac_cols,\
                              lanes_per_engine,input_fifo_depth,speedup,\
                              area_pct_of_gpu,power_pct_of_gpu,gpu_ms,\
                              ngpc_frame_ms,amdahl_bound,plateaued";

/// One CSV data row of an evaluated point (no trailing newline) — the
/// unit both the full-sweep CSV and the point-level cache shards are
/// built from.
pub fn point_to_row(p: &EvaluatedPoint) -> String {
    let d = &p.point;
    format!(
        "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
        d.index,
        app_slug(d.app),
        encoding_slug(d.encoding),
        d.pixels,
        d.nfp_units,
        d.clock_ghz,
        d.grid_sram_kb,
        d.grid_sram_banks,
        d.encoding_engines,
        d.mac_rows,
        d.mac_cols,
        d.lanes_per_engine,
        d.input_fifo_depth,
        p.speedup,
        p.area_pct_of_gpu,
        p.power_pct_of_gpu,
        p.gpu_ms,
        p.ngpc_frame_ms,
        p.amdahl_bound,
        p.plateaued,
    )
}

/// Parse one [`point_to_row`] data row.
pub fn point_from_row(line: &str) -> Result<EvaluatedPoint, String> {
    let fields: Vec<&str> = line.split(',').collect();
    if fields.len() != 20 {
        return Err(format!("expected 20 fields, got {}", fields.len()));
    }
    let err = |what: &str| format!("bad {what}");
    Ok(EvaluatedPoint {
        point: DesignPoint {
            index: fields[0].parse().map_err(|_| err("index"))?,
            app: parse_app(fields[1]).ok_or_else(|| err("app"))?,
            encoding: parse_encoding(fields[2]).ok_or_else(|| err("encoding"))?,
            pixels: fields[3].parse().map_err(|_| err("pixels"))?,
            nfp_units: fields[4].parse().map_err(|_| err("nfp_units"))?,
            clock_ghz: fields[5].parse().map_err(|_| err("clock_ghz"))?,
            grid_sram_kb: fields[6].parse().map_err(|_| err("grid_sram_kb"))?,
            grid_sram_banks: fields[7].parse().map_err(|_| err("grid_sram_banks"))?,
            encoding_engines: fields[8].parse().map_err(|_| err("encoding_engines"))?,
            mac_rows: fields[9].parse().map_err(|_| err("mac_rows"))?,
            mac_cols: fields[10].parse().map_err(|_| err("mac_cols"))?,
            lanes_per_engine: fields[11].parse().map_err(|_| err("lanes_per_engine"))?,
            input_fifo_depth: fields[12].parse().map_err(|_| err("input_fifo_depth"))?,
        },
        speedup: fields[13].parse().map_err(|_| err("speedup"))?,
        area_pct_of_gpu: fields[14].parse().map_err(|_| err("area_pct_of_gpu"))?,
        power_pct_of_gpu: fields[15].parse().map_err(|_| err("power_pct_of_gpu"))?,
        gpu_ms: fields[16].parse().map_err(|_| err("gpu_ms"))?,
        ngpc_frame_ms: fields[17].parse().map_err(|_| err("ngpc_frame_ms"))?,
        amdahl_bound: fields[18].parse().map_err(|_| err("amdahl_bound"))?,
        plateaued: fields[19].parse().map_err(|_| err("plateaued"))?,
    })
}

/// Render evaluated points as CSV (header + one row per point).
pub fn points_to_csv(points: &[EvaluatedPoint]) -> String {
    let mut out = String::with_capacity(64 * (points.len() + 1));
    out.push_str(CSV_HEADER);
    out.push('\n');
    for p in points {
        out.push_str(&point_to_row(p));
        out.push('\n');
    }
    out
}

/// Parse [`points_to_csv`] output (used by the evaluation cache).
/// Lines starting with `#` are ignored.
pub fn points_from_csv(text: &str) -> Result<Vec<EvaluatedPoint>, String> {
    let mut points = Vec::new();
    let mut saw_header = false;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if !saw_header {
            // First non-comment line must be the header.
            if line != CSV_HEADER {
                return Err(format!("line {}: unexpected header `{line}`", i + 1));
            }
            saw_header = true;
            continue;
        }
        points.push(point_from_row(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    if !saw_header {
        return Err("empty CSV".to_string());
    }
    Ok(points)
}

/// A JSON number: finite floats via shortest-round-trip `Display`,
/// non-finite as `null` (JSON has no inf/nan).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn app_list(apps: &[AppKind]) -> String {
    let items: Vec<String> = apps.iter().map(|&a| json_str(app_slug(a))).collect();
    format!("[{}]", items.join(","))
}

fn encoding_list(encodings: &[EncodingKind]) -> String {
    let items: Vec<String> = encodings.iter().map(|&e| json_str(encoding_slug(e))).collect();
    format!("[{}]", items.join(","))
}

fn json_point(p: &EvaluatedPoint) -> String {
    let d = &p.point;
    format!(
        "{{\"index\":{},\"app\":{},\"encoding\":{},\"pixels\":{},\"nfp_units\":{},\
         \"clock_ghz\":{},\"grid_sram_kb\":{},\"grid_sram_banks\":{},\"encoding_engines\":{},\
         \"mac_rows\":{},\"mac_cols\":{},\"lanes_per_engine\":{},\"input_fifo_depth\":{},\
         \"speedup\":{},\
         \"area_pct_of_gpu\":{},\"power_pct_of_gpu\":{},\"gpu_ms\":{},\"ngpc_frame_ms\":{},\
         \"amdahl_bound\":{},\"plateaued\":{}}}",
        d.index,
        json_str(app_slug(d.app)),
        json_str(encoding_slug(d.encoding)),
        d.pixels,
        d.nfp_units,
        json_f64(d.clock_ghz),
        d.grid_sram_kb,
        d.grid_sram_banks,
        d.encoding_engines,
        d.mac_rows,
        d.mac_cols,
        d.lanes_per_engine,
        d.input_fifo_depth,
        json_f64(p.speedup),
        json_f64(p.area_pct_of_gpu),
        json_f64(p.power_pct_of_gpu),
        json_f64(p.gpu_ms),
        json_f64(p.ngpc_frame_ms),
        json_f64(p.amdahl_bound),
        p.plateaued,
    )
}

fn json_arch(a: &ArchPoint) -> String {
    format!(
        "{{\"encoding\":{},\"pixels\":{},\"nfp_units\":{},\"clock_ghz\":{},\"grid_sram_kb\":{},\
         \"grid_sram_banks\":{},\"encoding_engines\":{},\"mac_rows\":{},\"mac_cols\":{},\
         \"lanes_per_engine\":{},\"input_fifo_depth\":{},\
         \"apps\":{},\"avg_speedup\":{},\"area_pct_of_gpu\":{},\
         \"power_pct_of_gpu\":{}}}",
        json_str(encoding_slug(a.encoding)),
        a.pixels,
        a.nfp_units,
        json_f64(a.clock_ghz),
        a.grid_sram_kb,
        a.grid_sram_banks,
        a.encoding_engines,
        a.mac_rows,
        a.mac_cols,
        a.lanes_per_engine,
        a.input_fifo_depth,
        a.apps,
        json_f64(a.avg_speedup),
        json_f64(a.area_pct_of_gpu),
        json_f64(a.power_pct_of_gpu),
    )
}

fn json_spec(spec: &SweepSpec) -> String {
    format!(
        "{{\"name\":{},\"apps\":{},\"encodings\":{},\"pixels\":{:?},\"nfp_units\":{:?},\
         \"clock_ghz\":{:?},\"grid_sram_kb\":{:?},\"grid_sram_banks\":{:?},\
         \"encoding_engines\":{:?},\"mac_rows\":{:?},\"mac_cols\":{:?},\
         \"lanes_per_engine\":{:?},\"input_fifo_depth\":{:?}}}",
        json_str(&spec.name),
        app_list(&spec.apps),
        encoding_list(&spec.encodings),
        spec.pixels,
        spec.nfp_units,
        spec.clock_ghz,
        spec.grid_sram_kb,
        spec.grid_sram_banks,
        spec.encoding_engines,
        spec.mac_rows,
        spec.mac_cols,
        spec.lanes_per_engine,
        spec.input_fifo_depth,
    )
}

/// Render a full outcome — spec, stats, every point, and the cross-app
/// frontier — as a single JSON document.
pub fn outcome_to_json(outcome: &SweepOutcome, frontier: &[ArchPoint]) -> String {
    let points: Vec<String> = outcome.points.iter().map(json_point).collect();
    let archs: Vec<String> = frontier.iter().map(json_arch).collect();
    let s = &outcome.stats;
    format!(
        "{{\n\"spec\":{},\n\"stats\":{{\"total_points\":{},\"evaluated\":{},\"cache_hits\":{},\
         \"cache_hit\":{},\"threads\":{},\"wall_ms\":{},\"points_per_sec\":{}}},\n\
         \"frontier\":[{}],\n\"points\":[\n{}\n]\n}}\n",
        json_spec(&outcome.spec),
        s.total_points,
        s.evaluated,
        s.cache_hits,
        s.cache_hit,
        s.threads,
        json_f64(s.wall.as_secs_f64() * 1e3),
        json_f64(s.points_per_sec()),
        archs.join(","),
        points.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pareto::Constraints;
    use crate::spec::SweepSpec;
    use crate::sweep::SweepEngine;

    fn outcome() -> SweepOutcome {
        SweepEngine::new().run(&SweepSpec::quick()).unwrap()
    }

    #[test]
    fn csv_round_trips_bit_exactly() {
        let outcome = outcome();
        let csv = points_to_csv(&outcome.points);
        let parsed = points_from_csv(&csv).unwrap();
        assert_eq!(parsed, outcome.points);
    }

    #[test]
    fn csv_rejects_malformed_input() {
        assert!(points_from_csv("").is_err());
        assert!(points_from_csv("not,a,header\n").is_err());
        let outcome = outcome();
        let mut csv = points_to_csv(&outcome.points[..1]);
        csv.push_str("1,nerf,hashgrid,bad\n");
        assert!(points_from_csv(&csv).is_err());
    }

    #[test]
    fn csv_ignores_comment_lines() {
        let outcome = outcome();
        let csv = format!("# cache header\n{}", points_to_csv(&outcome.points));
        assert_eq!(points_from_csv(&csv).unwrap(), outcome.points);
    }

    #[test]
    fn json_has_the_expected_shape() {
        let outcome = outcome();
        let frontier = outcome.cross_app_frontier(&Constraints::NONE);
        let json = outcome_to_json(&outcome, &frontier);
        assert!(json.contains("\"spec\":"));
        assert!(json.contains("\"frontier\":["));
        assert!(json.contains("\"points\":["));
        assert!(json.contains("\"app\":\"nerf\""));
        assert!(!json.contains("NaN"));
        // Balanced braces/brackets (cheap well-formedness check).
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count(),
                "unbalanced {open}{close}"
            );
        }
    }

    #[test]
    fn json_strings_escape_controls() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(1.5), "1.5");
    }
}
