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
use std::sync::LazyLock;

use ng_obs::ledger::Escaped;

use crate::spec::{Axis, DesignPoint, SweepSpec, AXES};
use crate::sweep::{ArchPoint, EvaluatedPoint, Sweep, SweepOutcome, SweepStats};

/// Column header of the points CSV: `index`, each axis's column in
/// [`AXES`] order, then the outputs.
pub static CSV_HEADER: LazyLock<String> = LazyLock::new(|| {
    let axes: Vec<&str> = AXES.iter().map(|a| a.column).collect();
    format!("index,{},{OUTPUTS}", axes.join(","))
});

/// The output columns of a CSV row.
const OUTPUTS: &str =
    "speedup,area_pct_of_gpu,power_pct_of_gpu,gpu_ms,ngpc_frame_ms,amdahl_bound,plateaued";

/// One CSV data row of an evaluated point (no trailing newline) — the
/// row format of both the full-sweep CSV and the point store's shards.
pub fn point_to_row(p: &EvaluatedPoint) -> String {
    let mut row = String::new();
    write_row(&mut row, p).expect(STRING_WRITE);
    row
}

/// Why every `fmt::Result` of a write into a `String` can be unwrapped.
pub(crate) const STRING_WRITE: &str = "writing into a String cannot fail";

fn write_row(out: &mut String, p: &EvaluatedPoint) -> fmt::Result {
    write!(out, "{}", p.point.index)?;
    for axis in &AXES {
        out.push(',');
        axis.field.write(&p.point, out, false)?;
    }
    write!(
        out,
        ",{},{},{},{},{},{},{}",
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
    let width = 1 + AXES.len() + 7;
    if fields.len() != width {
        return Err(format!("expected {width} fields, got {}", fields.len()));
    }
    let err = |what: &str| format!("bad {what}");
    let mut point = DesignPoint::base();
    point.index = fields[0].parse().map_err(|_| err("index"))?;
    for (axis, cell) in AXES.iter().zip(&fields[1..]) {
        axis.field.read(&mut point, cell).ok_or_else(|| err(axis.column))?;
    }
    let out = &fields[1 + AXES.len()..];
    Ok(EvaluatedPoint {
        point,
        speedup: out[0].parse().map_err(|_| err("speedup"))?,
        area_pct_of_gpu: out[1].parse().map_err(|_| err("area_pct_of_gpu"))?,
        power_pct_of_gpu: out[2].parse().map_err(|_| err("power_pct_of_gpu"))?,
        gpu_ms: out[3].parse().map_err(|_| err("gpu_ms"))?,
        ngpc_frame_ms: out[4].parse().map_err(|_| err("ngpc_frame_ms"))?,
        amdahl_bound: out[5].parse().map_err(|_| err("amdahl_bound"))?,
        plateaued: out[6].parse().map_err(|_| err("plateaued"))?,
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
    out.push_str(&CSV_HEADER);
    out.push('\n');
    csv_lines(&mut out, points);
    out
}

/// A JSON number: finite floats via shortest-round-trip `Display`,
/// non-finite as `null` (JSON has no inf/nan).
pub(crate) struct JsonF64(pub(crate) f64);

impl fmt::Display for JsonF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() {
            write!(f, "{}", self.0)
        } else {
            f.write_str("null")
        }
    }
}

/// Write `items` through `write_item`, separated by `sep`.
pub(crate) fn write_joined<T>(
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
    out.push_str("{\"index\":");
    write!(out, "{}", p.point.index)?;
    out.push(',');
    write_json_axes(out, &AXES, &p.point)?;
    write!(
        out,
        ",\"speedup\":{},\"area_pct_of_gpu\":{},\"power_pct_of_gpu\":{},\"gpu_ms\":{},\
         \"ngpc_frame_ms\":{},\"amdahl_bound\":{},\"plateaued\":{}}}",
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
    out.push('{');
    write_json_axes(out, &AXES[1..], &a.point())?;
    write!(
        out,
        ",\"apps\":{},\"avg_speedup\":{},\"area_pct_of_gpu\":{},\"power_pct_of_gpu\":{}}}",
        a.apps,
        JsonF64(a.avg_speedup),
        JsonF64(a.area_pct_of_gpu),
        JsonF64(a.power_pct_of_gpu),
    )
}

/// `p`'s value on each of `axes` as `"column":value`, comma-separated.
fn write_json_axes(out: &mut String, axes: &[Axis], p: &DesignPoint) -> fmt::Result {
    write_joined(out, axes, ",", |out, axis| {
        out.push('"');
        out.push_str(axis.column);
        out.push_str("\":");
        axis.field.write(p, out, true)
    })
}

fn write_json_spec(out: &mut String, spec: &SweepSpec) -> fmt::Result {
    write!(out, "{{\"name\":\"{}\"", Escaped(&spec.name))?;
    for axis in &AXES {
        write!(out, ",\"{}\":", axis.key)?;
        axis.field.write_values(spec, out)?;
    }
    out.push('}');
    Ok(())
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
        let mut text = format!("{}\n", *CSV_HEADER);
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
        let sweep = SweepEngine::new().run(&spec, false).unwrap();
        let csv = written(|out| sweep.write_csv(out));
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some(CSV_HEADER.as_str()));
        let parsed: Vec<EvaluatedPoint> = lines.map(|row| point_from_row(row).unwrap()).collect();
        let points = evaluate_points(&spec.points(), 1);
        assert_eq!(parsed, points);
        assert_eq!(point_to_row(&points[3]), csv.lines().nth(4).unwrap());
    }

    #[test]
    fn csv_header_is_the_index_each_axis_then_the_outputs() {
        let columns: Vec<&str> = CSV_HEADER.split(',').collect();
        let axes: Vec<&str> = AXES.iter().map(|a| a.column).collect();
        assert_eq!(columns[0], "index");
        assert_eq!(columns[1..=AXES.len()], axes);
        assert_eq!(columns[1 + AXES.len()..], OUTPUTS.split(',').collect::<Vec<_>>());
        assert_eq!(OUTPUTS.split(',').count(), 7);
        assert_eq!(
            *CSV_HEADER,
            "index,app,encoding,pixels,nfp_units,clock_ghz,grid_sram_kb,grid_sram_banks,\
             encoding_engines,mac_rows,mac_cols,lanes_per_engine,input_fifo_depth,speedup,\
             area_pct_of_gpu,power_pct_of_gpu,gpu_ms,ngpc_frame_ms,amdahl_bound,plateaued"
        );
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
        let sweep = SweepEngine::new().run(&spec, false).unwrap();
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
        assert_eq!(Escaped("a\"b\\c\n").to_string(), "a\\\"b\\\\c\\n");
        assert_eq!(Escaped("\u{1}").to_string(), "\\u0001");
        assert_eq!(JsonF64(f64::NAN).to_string(), "null");
        assert_eq!(JsonF64(1.5).to_string(), "1.5");
    }
}
