//! Results serialisation: CSV (also the point store's row format) and
//! JSON.
//!
//! A [`Sweep`] writes both straight to an [`io::Write`]: it refills its
//! points one block at a time from its factor tables, renders each block
//! into a reused `String` and writes it out, so no output holds the
//! whole sweep. [`points_to_csv`] and [`outcome_to_json`] render a held
//! point slice with the same row writers, for the benchmark's replay.
//!
//! Floats are written with Rust's shortest-round-trip `Display`, so a
//! parse of our own output reproduces every value bit-for-bit.

use std::fmt::{self, Write};
use std::io;

use crate::spec::{app_slug, encoding_slug, parse_app, parse_encoding, DesignPoint, SweepSpec};
use crate::sweep::{ArchPoint, EvaluatedPoint, Sweep, SweepOutcome, SweepStats};

/// Column header of the points CSV.
pub const CSV_HEADER: &str = "index,app,encoding,pixels,nfp_units,clock_ghz,grid_sram_kb,\
                              grid_sram_banks,encoding_engines,mac_rows,mac_cols,\
                              lanes_per_engine,input_fifo_depth,speedup,\
                              area_pct_of_gpu,power_pct_of_gpu,gpu_ms,\
                              ngpc_frame_ms,amdahl_bound,plateaued";

/// One CSV data row of an evaluated point (no trailing newline) — the
/// row format of both the full-sweep CSV and the point store's shards.
pub fn point_to_row(p: &EvaluatedPoint) -> String {
    let mut row = String::new();
    write_row(&mut row, p).expect(STRING_WRITE);
    row
}

/// Why every `fmt::Result` of a write into a `String` can be unwrapped.
const STRING_WRITE: &str = "writing into a String cannot fail";

fn write_row(out: &mut String, p: &EvaluatedPoint) -> fmt::Result {
    let d = &p.point;
    write!(
        out,
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

/// Append one CSV line per point.
fn csv_lines(out: &mut String, points: &[EvaluatedPoint]) {
    for p in points {
        write_row(out, p).expect(STRING_WRITE);
        out.push('\n');
    }
}

/// Render evaluated points as CSV (header + one row per point).
pub fn points_to_csv(points: &[EvaluatedPoint]) -> String {
    // ~164 bytes a row on guided-lanes: one allocation, no regrowth.
    let mut out = String::with_capacity(168 * (points.len() + 1));
    out.push_str(CSV_HEADER);
    out.push('\n');
    csv_lines(&mut out, points);
    out
}

/// A JSON number: finite floats via shortest-round-trip `Display`,
/// non-finite as `null` (JSON has no inf/nan).
struct JsonF64(f64);

impl fmt::Display for JsonF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() {
            write!(f, "{}", self.0)
        } else {
            f.write_str("null")
        }
    }
}

/// A quoted, escaped JSON string.
struct JsonStr<'a>(&'a str);

impl fmt::Display for JsonStr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
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
        f.write_char('"')
    }
}

/// Write `items` through `write_item`, separated by `sep`.
fn write_joined<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    sep: &str,
    mut write_item: impl FnMut(&mut String, T) -> fmt::Result,
) -> fmt::Result {
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push_str(sep);
        }
        write_item(out, item)?;
    }
    Ok(())
}

fn write_json_point(out: &mut String, p: &EvaluatedPoint) -> fmt::Result {
    let d = &p.point;
    write!(
        out,
        "{{\"index\":{},\"app\":{},\"encoding\":{},\"pixels\":{},\"nfp_units\":{},\
         \"clock_ghz\":{},\"grid_sram_kb\":{},\"grid_sram_banks\":{},\"encoding_engines\":{},\
         \"mac_rows\":{},\"mac_cols\":{},\"lanes_per_engine\":{},\"input_fifo_depth\":{},\
         \"speedup\":{},\
         \"area_pct_of_gpu\":{},\"power_pct_of_gpu\":{},\"gpu_ms\":{},\"ngpc_frame_ms\":{},\
         \"amdahl_bound\":{},\"plateaued\":{}}}",
        d.index,
        JsonStr(app_slug(d.app)),
        JsonStr(encoding_slug(d.encoding)),
        d.pixels,
        d.nfp_units,
        JsonF64(d.clock_ghz),
        d.grid_sram_kb,
        d.grid_sram_banks,
        d.encoding_engines,
        d.mac_rows,
        d.mac_cols,
        d.lanes_per_engine,
        d.input_fifo_depth,
        JsonF64(p.speedup),
        JsonF64(p.area_pct_of_gpu),
        JsonF64(p.power_pct_of_gpu),
        JsonF64(p.gpu_ms),
        JsonF64(p.ngpc_frame_ms),
        JsonF64(p.amdahl_bound),
        p.plateaued,
    )
}

fn write_json_arch(out: &mut String, a: &ArchPoint) -> fmt::Result {
    write!(
        out,
        "{{\"encoding\":{},\"pixels\":{},\"nfp_units\":{},\"clock_ghz\":{},\"grid_sram_kb\":{},\
         \"grid_sram_banks\":{},\"encoding_engines\":{},\"mac_rows\":{},\"mac_cols\":{},\
         \"lanes_per_engine\":{},\"input_fifo_depth\":{},\
         \"apps\":{},\"avg_speedup\":{},\"area_pct_of_gpu\":{},\
         \"power_pct_of_gpu\":{}}}",
        JsonStr(encoding_slug(a.encoding)),
        a.pixels,
        a.nfp_units,
        JsonF64(a.clock_ghz),
        a.grid_sram_kb,
        a.grid_sram_banks,
        a.encoding_engines,
        a.mac_rows,
        a.mac_cols,
        a.lanes_per_engine,
        a.input_fifo_depth,
        a.apps,
        JsonF64(a.avg_speedup),
        JsonF64(a.area_pct_of_gpu),
        JsonF64(a.power_pct_of_gpu),
    )
}

fn write_json_spec(out: &mut String, spec: &SweepSpec) -> fmt::Result {
    write!(out, "{{\"name\":{},\"apps\":[", JsonStr(&spec.name))?;
    write_joined(out, &spec.apps, ",", |out, &a| write!(out, "{}", JsonStr(app_slug(a))))?;
    out.push_str("],\"encodings\":[");
    write_joined(out, &spec.encodings, ",", |out, &e| {
        write!(out, "{}", JsonStr(encoding_slug(e)))
    })?;
    write!(
        out,
        "],\"pixels\":{:?},\"nfp_units\":{:?},\
         \"clock_ghz\":{:?},\"grid_sram_kb\":{:?},\"grid_sram_banks\":{:?},\
         \"encoding_engines\":{:?},\"mac_rows\":{:?},\"mac_cols\":{:?},\
         \"lanes_per_engine\":{:?},\"input_fifo_depth\":{:?}}}",
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
    // ~440 bytes a point on guided-lanes.
    let mut out = String::with_capacity(448 * (outcome.points.len() + frontier.len() + 1));
    write_json_head(&mut out, &outcome.spec, &outcome.stats, frontier).expect(STRING_WRITE);
    write_json_points(&mut out, &outcome.points, true).expect(STRING_WRITE);
    out.push_str(JSON_TAIL);
    out
}

/// Everything of the JSON document before its first point: the spec,
/// the stats, the frontier and the opening of the point array.
fn write_json_head(
    out: &mut String,
    spec: &SweepSpec,
    s: &SweepStats,
    frontier: &[ArchPoint],
) -> fmt::Result {
    out.push_str("{\n\"spec\":");
    write_json_spec(out, spec)?;
    write!(
        out,
        ",\n\"stats\":{{\"total_points\":{},\"evaluated\":{},\"cache_hits\":{},\
         \"cache_hit\":{},\"threads\":{},\"wall_ms\":{},\"points_per_sec\":{}}},\n\
         \"frontier\":[",
        s.total_points,
        s.evaluated,
        s.cache_hits,
        s.cache_hit,
        s.threads,
        JsonF64(s.wall.as_secs_f64() * 1e3),
        JsonF64(s.points_per_sec()),
    )?;
    write_joined(out, frontier, ",", write_json_arch)?;
    out.push_str("],\n\"points\":[\n");
    Ok(())
}

/// Append `points` to the JSON point array, each after a `,\n`
/// separator except the document's `first`.
fn write_json_points(out: &mut String, points: &[EvaluatedPoint], first: bool) -> fmt::Result {
    if !first && !points.is_empty() {
        out.push_str(",\n");
    }
    write_joined(out, points, ",\n", write_json_point)
}

/// Everything of the JSON document after its last point.
const JSON_TAIL: &str = "\n]\n}\n";

impl Sweep<'_> {
    /// Write every point as CSV (header + one row per point, in spec
    /// order) to `out`, then flush it.
    pub fn write_csv(&self, mut out: impl io::Write) -> io::Result<()> {
        let mut text = format!("{CSV_HEADER}\n");
        out.write_all(text.as_bytes())?;
        self.tables.each_block(|block| {
            text.clear();
            csv_lines(&mut text, block);
            out.write_all(text.as_bytes())
        })?;
        out.flush()
    }

    /// Write the spec, the stats, the constrained cross-app frontier and
    /// every point (in spec order) as one JSON document to `out`, then
    /// flush it.
    pub fn write_json(&self, mut out: impl io::Write) -> io::Result<()> {
        let mut text = String::new();
        let spec = self.tables.space.spec;
        write_json_head(&mut text, spec, &self.stats, &self.frontiers.cross_app)
            .expect(STRING_WRITE);
        out.write_all(text.as_bytes())?;
        let mut first = true;
        self.tables.each_block(|block| {
            text.clear();
            write_json_points(&mut text, block, first).expect(STRING_WRITE);
            first = false;
            out.write_all(text.as_bytes())
        })?;
        out.write_all(JSON_TAIL.as_bytes())?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pareto::Constraints;
    use crate::spec::SweepSpec;
    use crate::sweep::{evaluate_points, SweepEngine};

    fn written(write: impl FnOnce(&mut Vec<u8>) -> io::Result<()>) -> String {
        let mut out = Vec::new();
        write(&mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn csv_round_trips_bit_exactly() {
        let spec = SweepSpec::quick();
        let sweep = SweepEngine::new().run(&spec, &Constraints::NONE, false).unwrap();
        let csv = written(|out| sweep.write_csv(out));
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some(CSV_HEADER));
        let parsed: Vec<EvaluatedPoint> = lines.map(|row| point_from_row(row).unwrap()).collect();
        let points = evaluate_points(&spec.points(), 1);
        assert_eq!(parsed, points);
        assert_eq!(point_to_row(&points[3]), csv.lines().nth(4).unwrap());
    }

    #[test]
    fn csv_rejects_malformed_rows() {
        assert!(point_from_row("").is_err());
        assert!(point_from_row("1,nerf,hashgrid,bad").is_err());
        let row = point_to_row(&evaluate_points(&SweepSpec::quick().points()[..1], 1)[0]);
        assert!(point_from_row(&row.replacen(",nerf,", ",quake,", 1)).is_err());
        assert!(point_from_row(&row.replace("true", "maybe").replace("false", "maybe")).is_err());
    }

    #[test]
    fn json_has_the_expected_shape() {
        let spec = SweepSpec::quick();
        let sweep = SweepEngine::new().run(&spec, &Constraints::NONE, false).unwrap();
        let json = written(|out| sweep.write_json(out));
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
        assert_eq!(JsonStr("a\"b\\c\n").to_string(), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(JsonStr("\u{1}").to_string(), "\"\\u0001\"");
        assert_eq!(JsonF64(f64::NAN).to_string(), "null");
        assert_eq!(JsonF64(1.5).to_string(), "1.5");
    }
}
