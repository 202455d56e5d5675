//! Declarative sweep specifications.
//!
//! A [`SweepSpec`] is a set of axes; the sweep is their cartesian
//! product. [`AXES`] declares each axis once, and [`Space`] owns its one
//! layout, row-major with apps outermost and the input-FIFO depth
//! innermost, so that point indices — and therefore result files and
//! reports — are stable for a given spec.

use std::fmt::{self, Write as _};
use std::sync::LazyLock;

use ng_neural::apps::{AppKind, EncodingKind};
use ng_neural::math::Pcg32;
use ng_neural::render::image::Resolution;
use ngpc::{EmulatorInput, NfpConfig, NgpcConfig};

use crate::emit::{write_joined, JsonF64, STRING_WRITE};
use crate::pareto::Constraints;

/// 1920x1080, the paper's evaluation resolution.
pub use ng_gpu::calibrate::FHD_PIXELS;

/// The paper NFP's grid SRAM per engine in KiB, the unit of its axis.
const PAPER_SRAM_KB: u32 = (NfpConfig::PAPER.grid_sram_bytes / 1024) as u32;

/// One swept parameter, declared once in [`AXES`].
pub struct Axis {
    /// Key of the TOML spec and of the JSON spec block; validation
    /// errors name it.
    pub key: &'static str,
    /// Column of a point in the CSV and the JSON.
    pub column: &'static str,
    /// `dse`'s flag that overrides the axis.
    pub flag: &'static str,
    /// Label of the axis in the report's `sweep` line.
    pub label: &'static str,
    /// Where the axis's values live, and the paper organisation's value.
    pub(crate) field: &'static dyn Column,
}

/// Every axis of a [`SweepSpec`]: `apps` first, then the arch axes in
/// [`Space`] order, so a row's position is its axis number. Validation,
/// the TOML parser, `dse`'s override flags, [`Space::new`], the CSV and
/// JSON writers and the report iterate this table. A new axis adds a
/// row here; its fields in [`SweepSpec`], [`DesignPoint`] and
/// [`crate::ArchPoint`], with the field code that copies between them
/// (`Space::at` and the `ArchPoint` conversions); its line in `dse`'s
/// help text; and the model code that reads it.
///
/// The paper values are the published NGPC-64 headline *organisation*:
/// hashgrid, FHD and 64 units, with every NFP axis at its
/// [`NfpConfig::PAPER`] value (1 GHz, 1 MB/8-bank grid SRAMs, 16
/// engines, 64x64 MACs), over any apps. The lane and FIFO axes are left
/// free (see [`crate::ArchPoint::is_paper_organisation`]). Every
/// headline guard reads these values, so the guards cannot drift apart.
pub static AXES: [Axis; 12] = [
    Axis {
        key: "apps",
        column: "app",
        flag: "--apps",
        label: "apps",
        field: &Field(None, |s| &s.apps, |s| &mut s.apps, |p| &mut p.app),
    },
    Axis {
        key: "encodings",
        column: "encoding",
        flag: "--encodings",
        label: "encodings",
        field: &Field(
            Some(EncodingKind::MultiResHashGrid),
            |s| &s.encodings,
            |s| &mut s.encodings,
            |p| &mut p.encoding,
        ),
    },
    Axis {
        key: "pixels",
        column: "pixels",
        flag: "--pixels",
        label: "resolutions",
        field: &Field(Some(FHD_PIXELS), |s| &s.pixels, |s| &mut s.pixels, |p| &mut p.pixels),
    },
    Axis {
        key: "nfp_units",
        column: "nfp_units",
        flag: "--nfp-units",
        label: "nfp",
        field: &Field(Some(64), |s| &s.nfp_units, |s| &mut s.nfp_units, |p| &mut p.nfp_units),
    },
    Axis {
        key: "clock_ghz",
        column: "clock_ghz",
        flag: "--clocks",
        label: "clocks",
        field: &Field(
            Some(NfpConfig::PAPER.clock_ghz),
            |s| &s.clock_ghz,
            |s| &mut s.clock_ghz,
            |p| &mut p.clock_ghz,
        ),
    },
    Axis {
        key: "grid_sram_kb",
        column: "grid_sram_kb",
        flag: "--sram-kb",
        label: "srams",
        field: &Field(
            Some(PAPER_SRAM_KB),
            |s| &s.grid_sram_kb,
            |s| &mut s.grid_sram_kb,
            |p| &mut p.grid_sram_kb,
        ),
    },
    Axis {
        key: "grid_sram_banks",
        column: "grid_sram_banks",
        flag: "--banks",
        label: "banks",
        field: &Field(
            Some(NfpConfig::PAPER.grid_sram_banks),
            |s| &s.grid_sram_banks,
            |s| &mut s.grid_sram_banks,
            |p| &mut p.grid_sram_banks,
        ),
    },
    Axis {
        key: "encoding_engines",
        column: "encoding_engines",
        flag: "--engines",
        label: "engines",
        field: &Field(
            Some(NfpConfig::PAPER.encoding_engines),
            |s| &s.encoding_engines,
            |s| &mut s.encoding_engines,
            |p| &mut p.encoding_engines,
        ),
    },
    Axis {
        key: "mac_rows",
        column: "mac_rows",
        flag: "--mac-rows",
        label: "mac-rows",
        field: &Field(
            Some(NfpConfig::PAPER.mac_rows),
            |s| &s.mac_rows,
            |s| &mut s.mac_rows,
            |p| &mut p.mac_rows,
        ),
    },
    Axis {
        key: "mac_cols",
        column: "mac_cols",
        flag: "--mac-cols",
        label: "mac-cols",
        field: &Field(
            Some(NfpConfig::PAPER.mac_cols),
            |s| &s.mac_cols,
            |s| &mut s.mac_cols,
            |p| &mut p.mac_cols,
        ),
    },
    Axis {
        key: "lanes_per_engine",
        column: "lanes_per_engine",
        flag: "--lanes",
        label: "lanes",
        field: &Field(
            None,
            |s| &s.lanes_per_engine,
            |s| &mut s.lanes_per_engine,
            |p| &mut p.lanes_per_engine,
        ),
    },
    Axis {
        key: "input_fifo_depth",
        column: "input_fifo_depth",
        flag: "--fifo",
        label: "fifos",
        field: &Field(
            None,
            |s| &s.input_fifo_depth,
            |s| &mut s.input_fifo_depth,
            |p| &mut p.input_fifo_depth,
        ),
    },
];

/// The number of the axis whose key is `key`: its row in [`AXES`]. An
/// unknown key fails the build where it is evaluated in a constant.
pub(crate) const fn axis(key: &str) -> usize {
    let mut i = 0;
    // Keys are lower case, so this is key equality.
    while !AXES[i].key.eq_ignore_ascii_case(key) {
        i += 1;
    }
    i
}

impl Axis {
    /// Set the axis of `spec` to the comma-separated values of `list`,
    /// as `dse`'s override flag does.
    pub fn set_list(&self, spec: &mut SweepSpec, list: &str) -> Result<(), String> {
        let flag = self.flag;
        let items: Vec<&str> = list.split(',').map(str::trim).filter(|s| !s.is_empty()).collect();
        if items.is_empty() {
            return Err(format!("{flag}: empty list"));
        }
        self.field.set_items(spec, &items).map_err(|s| format!("{flag}: cannot parse `{s}`"))
    }
}

/// What the loops over [`AXES`] ask of an axis, whatever its value type.
pub(crate) trait Column: Sync {
    /// The number of values `spec` sweeps.
    fn len(&self, spec: &SweepSpec) -> usize;
    /// `spec`'s values as CSV cells.
    fn cells(&self, spec: &SweepSpec) -> Vec<String>;
    /// Whether `spec` sweeps the paper organisation's value, or any
    /// value where the organisation leaves the axis free.
    fn sweeps_paper(&self, spec: &SweepSpec) -> bool;
    /// Write `spec`'s values as the JSON spec block's array.
    fn write_values(&self, spec: &SweepSpec, out: &mut String) -> fmt::Result;
    /// Set `spec`'s values from list items (of a flag or a spec line);
    /// `Err` holds the first item that does not parse.
    fn set_items<'a>(&self, spec: &mut SweepSpec, items: &[&'a str]) -> Result<(), &'a str>;
    /// Whether `p` holds the paper organisation's value (any value
    /// where the organisation leaves the axis free).
    fn is_paper(&self, p: &DesignPoint) -> bool;
    /// Write `p`'s value as a CSV cell or, with `json`, a JSON value.
    fn write(&self, p: &DesignPoint, out: &mut String, json: bool) -> fmt::Result;
    /// Set `p`'s value from a CSV cell; `None` if the cell does not parse.
    fn read(&self, p: &mut DesignPoint, cell: &str) -> Option<()>;
}

/// An axis's fields: the paper organisation's value (`None` where the
/// organisation leaves the axis free), the spec's values (read, then
/// write) and the point's value.
struct Field<T>(
    Option<T>,
    fn(&SweepSpec) -> &Vec<T>,
    fn(&mut SweepSpec) -> &mut Vec<T>,
    fn(&mut DesignPoint) -> &mut T,
);

impl<T: AxisValue> Field<T> {
    /// `p`'s value, read from a copy of `p`.
    fn get(&self, p: &DesignPoint) -> T {
        *(self.3)(&mut { *p })
    }
}

impl<T: AxisValue> Column for Field<T> {
    fn len(&self, spec: &SweepSpec) -> usize {
        (self.1)(spec).len()
    }

    fn cells(&self, spec: &SweepSpec) -> Vec<String> {
        let cell = |&v: &T| {
            let mut cell = String::new();
            v.write(&mut cell, false).expect(STRING_WRITE);
            cell
        };
        (self.1)(spec).iter().map(cell).collect()
    }

    fn sweeps_paper(&self, spec: &SweepSpec) -> bool {
        let values = (self.1)(spec);
        self.0.map_or(!values.is_empty(), |paper| values.contains(&paper))
    }

    fn write_values(&self, spec: &SweepSpec, out: &mut String) -> fmt::Result {
        T::write_all((self.1)(spec), out)
    }

    fn set_items<'a>(&self, spec: &mut SweepSpec, items: &[&'a str]) -> Result<(), &'a str> {
        *(self.2)(spec) = items.iter().map(|&s| T::parse(s).ok_or(s)).collect::<Result<_, _>>()?;
        Ok(())
    }

    fn is_paper(&self, p: &DesignPoint) -> bool {
        self.0.is_none_or(|paper| self.get(p) == paper)
    }

    fn write(&self, p: &DesignPoint, out: &mut String, json: bool) -> fmt::Result {
        self.get(p).write(out, json)
    }

    fn read(&self, p: &mut DesignPoint, cell: &str) -> Option<()> {
        *(self.3)(p) = T::parse(cell)?;
        Some(())
    }
}

/// How one axis value reads and prints.
pub(crate) trait AxisValue: Copy + PartialEq + fmt::Debug + Sync {
    /// The value of a flag's list item, a spec line's item or a CSV
    /// cell: the one reader of an axis value.
    fn parse(s: &str) -> Option<Self>;
    /// Write the value as a CSV cell or, with `json`, as a JSON value.
    fn write(self, out: &mut String, json: bool) -> fmt::Result;
    /// Write `values` as the JSON spec block's array.
    fn write_all(values: &[Self], out: &mut String) -> fmt::Result {
        write!(out, "{values:?}")
    }
}

impl AxisValue for AppKind {
    fn parse(s: &str) -> Option<Self> {
        parse_app(s)
    }

    fn write(self, out: &mut String, json: bool) -> fmt::Result {
        write_slug(out, app_slug(self), json)
    }

    fn write_all(values: &[Self], out: &mut String) -> fmt::Result {
        write_slugs(out, values)
    }
}

impl AxisValue for EncodingKind {
    fn parse(s: &str) -> Option<Self> {
        parse_encoding(s)
    }

    fn write(self, out: &mut String, json: bool) -> fmt::Result {
        write_slug(out, encoding_slug(self), json)
    }

    fn write_all(values: &[Self], out: &mut String) -> fmt::Result {
        write_slugs(out, values)
    }
}

impl AxisValue for u64 {
    fn parse(s: &str) -> Option<Self> {
        s.parse().ok()
    }

    fn write(self, out: &mut String, _: bool) -> fmt::Result {
        write!(out, "{self}")
    }
}

impl AxisValue for u32 {
    fn parse(s: &str) -> Option<Self> {
        s.parse().ok()
    }

    fn write(self, out: &mut String, _: bool) -> fmt::Result {
        write!(out, "{self}")
    }
}

impl AxisValue for f64 {
    fn parse(s: &str) -> Option<Self> {
        s.parse().ok()
    }

    fn write(self, out: &mut String, json: bool) -> fmt::Result {
        if json {
            write!(out, "{}", JsonF64(self))
        } else {
            write!(out, "{self}")
        }
    }
}

/// A slug: bare in a CSV cell, quoted in JSON.
fn write_slug(out: &mut String, slug: &str, json: bool) -> fmt::Result {
    // A slug is lower-case ASCII letters, which JSON does not escape.
    if json {
        out.push('"');
    }
    out.push_str(slug);
    if json {
        out.push('"');
    }
    Ok(())
}

/// A JSON array of slugs.
fn write_slugs<T: AxisValue>(out: &mut String, values: &[T]) -> fmt::Result {
    out.push('[');
    write_joined(out, values, ",", |out, &v| v.write(out, true))?;
    out.push(']');
    Ok(())
}

/// Error raised by spec parsing or validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// A line of the TOML input could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The spec parsed but describes an unusable sweep.
    Invalid(String),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Parse { line, message } => write!(f, "spec line {line}: {message}"),
            SpecError::Invalid(message) => write!(f, "invalid spec: {message}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// Short machine-readable name of an application (CSV/TOML vocabulary).
pub fn app_slug(app: AppKind) -> &'static str {
    match app {
        AppKind::Nerf => "nerf",
        AppKind::Nsdf => "nsdf",
        AppKind::Gia => "gia",
        AppKind::Nvr => "nvr",
    }
}

/// Parse an application slug (case-insensitive).
pub fn parse_app(s: &str) -> Option<AppKind> {
    AppKind::ALL.into_iter().find(|&a| app_slug(a).eq_ignore_ascii_case(s))
}

/// Short machine-readable name of an encoding (CSV/TOML vocabulary).
pub fn encoding_slug(encoding: EncodingKind) -> &'static str {
    match encoding {
        EncodingKind::MultiResHashGrid => "hashgrid",
        EncodingKind::MultiResDenseGrid => "densegrid",
        EncodingKind::LowResDenseGrid => "lowres",
    }
}

/// Parse an encoding slug or paper abbreviation (case-insensitive).
pub fn parse_encoding(s: &str) -> Option<EncodingKind> {
    EncodingKind::ALL
        .into_iter()
        .find(|&e| encoding_slug(e).eq_ignore_ascii_case(s) || e.abbrev().eq_ignore_ascii_case(s))
}

/// One concrete configuration drawn from a sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignPoint {
    /// Position in the spec's deterministic enumeration order.
    pub index: usize,
    /// Application under evaluation.
    pub app: AppKind,
    /// Input-encoding scheme.
    pub encoding: EncodingKind,
    /// Frame resolution in pixels.
    pub pixels: u64,
    /// NFP count (the paper's scaling factor).
    pub nfp_units: u32,
    /// NFP clock in GHz.
    pub clock_ghz: f64,
    /// Grid SRAM per encoding engine in KiB.
    pub grid_sram_kb: u32,
    /// Banks per grid SRAM.
    pub grid_sram_banks: u32,
    /// Input-encoding engines per NFP.
    pub encoding_engines: u32,
    /// MAC array rows of the MLP engine.
    pub mac_rows: u32,
    /// MAC array columns of the MLP engine.
    pub mac_cols: u32,
    /// Query lanes per encoding engine.
    pub lanes_per_engine: u32,
    /// Fusion input-FIFO depth in entries.
    pub input_fifo_depth: u32,
}

impl DesignPoint {
    /// The first point of [`SweepSpec::default`]: what validation and
    /// the CSV reader set one axis at a time.
    pub(crate) fn base() -> Self {
        static BASE: LazyLock<DesignPoint> =
            LazyLock::new(|| Space::new(&SweepSpec::default()).point(&[0; ARCH_AXES], 0));
        *BASE
    }

    /// The emulator input for this point.
    pub fn emulator_input(&self) -> EmulatorInput {
        EmulatorInput {
            app: self.app,
            encoding: self.encoding,
            pixels: self.pixels,
            nfp_units: self.nfp_units,
            nfp: NfpConfig {
                encoding_engines: self.encoding_engines,
                grid_sram_bytes: self.grid_sram_kb as usize * 1024,
                grid_sram_banks: self.grid_sram_banks,
                lanes_per_engine: self.lanes_per_engine,
                mac_rows: self.mac_rows,
                mac_cols: self.mac_cols,
                input_fifo_depth: self.input_fifo_depth,
                clock_ghz: self.clock_ghz,
            },
        }
    }
}

/// A declarative design-space sweep: the cartesian product of its axes.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Human-readable sweep name (reported).
    pub name: String,
    /// Applications to evaluate.
    pub apps: Vec<AppKind>,
    /// Input encodings to evaluate.
    pub encodings: Vec<EncodingKind>,
    /// Frame resolutions in pixels.
    pub pixels: Vec<u64>,
    /// NFP counts.
    pub nfp_units: Vec<u32>,
    /// NFP clocks in GHz.
    pub clock_ghz: Vec<f64>,
    /// Grid SRAM sizes per encoding engine, in KiB.
    pub grid_sram_kb: Vec<u32>,
    /// Grid SRAM bank counts (powers of two).
    pub grid_sram_banks: Vec<u32>,
    /// Input-encoding engine counts per NFP.
    pub encoding_engines: Vec<u32>,
    /// MAC array row counts of the MLP engine.
    pub mac_rows: Vec<u32>,
    /// MAC array column counts of the MLP engine.
    pub mac_cols: Vec<u32>,
    /// Query-lane counts per encoding engine.
    pub lanes_per_engine: Vec<u32>,
    /// Fusion input-FIFO depths in entries.
    pub input_fifo_depth: Vec<u32>,
    /// The bounds every frontier of a sweep of this spec must meet:
    /// [`crate::SweepEngine::run`] and [`crate::report::write_report`]
    /// read them from here. Every point counts into `eval.ticks`, but the
    /// fold skips, unscored, each block of architectures whose bound
    /// fails them.
    pub constraints: Constraints,
}

impl Default for SweepSpec {
    /// All four apps, hashgrid, FHD, the paper's scaling factors, and
    /// the paper's NFP ([`NfpConfig::PAPER`]) everywhere else.
    fn default() -> Self {
        SweepSpec {
            name: "custom".to_string(),
            apps: AppKind::ALL.to_vec(),
            encodings: vec![EncodingKind::MultiResHashGrid],
            pixels: vec![FHD_PIXELS],
            nfp_units: NgpcConfig::SCALING_FACTORS.to_vec(),
            clock_ghz: vec![NfpConfig::PAPER.clock_ghz],
            grid_sram_kb: vec![PAPER_SRAM_KB],
            grid_sram_banks: vec![NfpConfig::PAPER.grid_sram_banks],
            encoding_engines: vec![NfpConfig::PAPER.encoding_engines],
            mac_rows: vec![NfpConfig::PAPER.mac_rows],
            mac_cols: vec![NfpConfig::PAPER.mac_cols],
            lanes_per_engine: vec![NfpConfig::PAPER.lanes_per_engine],
            input_fifo_depth: vec![NfpConfig::PAPER.input_fifo_depth],
            constraints: Constraints::default(),
        }
    }
}

impl SweepSpec {
    /// The flagship preset: every app and encoding, NFP counts from 4
    /// to 128, and the SRAM sizing/banking trade-off around the paper's
    /// 1 MB / 8-bank design point — 1440 configurations containing all
    /// of the paper's published ones (clock pinned at the paper's
    /// 1 GHz).
    pub fn paper() -> Self {
        SweepSpec {
            name: "paper".to_string(),
            encodings: EncodingKind::ALL.to_vec(),
            nfp_units: vec![4, 8, 12, 16, 24, 32, 48, 64, 96, 128],
            grid_sram_kb: vec![256, 512, 1024, 2048],
            grid_sram_banks: vec![2, 4, 8],
            ..SweepSpec::default()
        }
    }

    /// A 16-point smoke sweep: the paper's Fig. 12-a hashgrid column.
    pub fn quick() -> Self {
        SweepSpec { name: "quick".to_string(), ..SweepSpec::default() }
    }

    /// Clock-frequency sensitivity around the paper's 1 GHz NFP.
    pub fn clocks() -> Self {
        SweepSpec {
            name: "clocks".to_string(),
            encodings: EncodingKind::ALL.to_vec(),
            nfp_units: vec![8, 16, 32, 64],
            clock_ghz: vec![0.5, 0.75, 1.0, 1.25, 1.5, 2.0],
            ..SweepSpec::default()
        }
    }

    /// Resolution scaling: HD to 8K at the paper's scaling factors.
    pub fn resolutions() -> Self {
        use Resolution::{Fhd, Hd, Qhd, Uhd4k, Uhd8k};
        SweepSpec {
            name: "resolutions".to_string(),
            pixels: [Hd, Fhd, Qhd, Uhd4k, Uhd8k].map(Resolution::pixels).to_vec(),
            nfp_units: vec![8, 16, 32, 64, 128],
            ..SweepSpec::default()
        }
    }

    /// The NFP-microarchitecture preset: MAC arrays from 32x32 to
    /// 128x128 crossed with 8/16/32 encoding engines at the paper's
    /// scaling factors — the axes the compositional timing model opened
    /// up. Contains the paper's 64x64 / 16-engine NFP at every unit
    /// count.
    pub fn mac_arrays() -> Self {
        SweepSpec {
            name: "mac-arrays".to_string(),
            encoding_engines: vec![8, 16, 32],
            mac_rows: vec![32, 64, 128],
            mac_cols: vec![32, 64, 128],
            ..SweepSpec::default()
        }
    }

    /// The exploded 11-arch-axis space: the paper preset's axes crossed
    /// with the NFP-microarchitecture axes *and* the query-lane /
    /// input-FIFO axes — 262,440 points, ~180x the paper preset, which
    /// the bounded fold sweeps in ~0.5–0.8 ms on a 2-core box (a whole
    /// statically linked `dse` process takes ~1.1 ms in perfbench's
    /// `sweep` workload; DESIGN.md § Where a `dse` process's time goes).
    ///
    /// Two axes stop at the paper's value, so that the paper's NGPC-64
    /// *organisation* stays on the frontier (CI's `--check-headline`
    /// guard). The SRAM axis stops at 1 MB: with 2 MB SRAMs, 8 engines
    /// serving 2 level tables each match 16-engine throughput (the MLP
    /// stage is the bottleneck) at less area, which evicts every
    /// 16-engine organisation from the 64-unit frontier. The clock
    /// stays at 1 GHz: at 1.25 GHz an NGPC-48 reaches NGPC-64's plateau
    /// speedup at less area and power. The FIFO axis samples below the
    /// overlap knee (2, 8) and the paper's 64. The 2 MB sizing study
    /// stays covered by the `paper` preset.
    pub fn guided_lanes() -> Self {
        SweepSpec {
            name: "guided-lanes".to_string(),
            encodings: EncodingKind::ALL.to_vec(),
            nfp_units: vec![4, 8, 12, 16, 24, 32, 48, 64, 96, 128],
            grid_sram_kb: vec![256, 512, 1024],
            grid_sram_banks: vec![2, 4, 8],
            encoding_engines: vec![8, 16, 32],
            mac_rows: vec![32, 64, 128],
            mac_cols: vec![32, 64, 128],
            lanes_per_engine: vec![1, 2, 4],
            input_fifo_depth: vec![2, 8, 64],
            ..SweepSpec::default()
        }
    }

    /// Look up a named preset.
    pub fn preset(name: &str) -> Option<Self> {
        match name {
            "paper" => Some(Self::paper()),
            "quick" => Some(Self::quick()),
            "clocks" => Some(Self::clocks()),
            "resolutions" => Some(Self::resolutions()),
            "mac-arrays" => Some(Self::mac_arrays()),
            "guided-lanes" => Some(Self::guided_lanes()),
            _ => None,
        }
    }

    /// Names accepted by [`SweepSpec::preset`].
    pub const PRESETS: [&'static str; 6] =
        ["paper", "quick", "clocks", "resolutions", "mac-arrays", "guided-lanes"];

    /// Number of points in the sweep.
    pub fn point_count(&self) -> usize {
        self.apps.len() * Space::new(self).arch_count()
    }

    /// Whether the sweep evaluates the paper's NGPC-64 organisation
    /// ([`crate::ArchPoint::is_paper_organisation`]): some app is swept
    /// and every axis the organisation fixes holds its value. Decided
    /// from the axes alone, with no point evaluated.
    pub fn contains_paper_organisation(&self) -> bool {
        AXES.iter().all(|a| a.field.sweeps_paper(self))
    }

    /// Check the sweep is non-empty, its point count fits in a `usize`,
    /// and every axis value is one the emulator accepts.
    pub fn validate(&self) -> Result<(), SpecError> {
        let invalid = |message: String| Err(SpecError::Invalid(message));
        let mut points = Some(1usize);
        for Axis { key, field, .. } in &AXES {
            let len = field.len(self);
            if len == 0 {
                return invalid(format!("axis `{key}` is empty"));
            }
            // `ArchIdx` positions are `u32`.
            if u32::try_from(len).is_err() {
                return invalid(format!("axis `{key}` has over 2^32 values"));
            }
            points = points.and_then(|n| n.checked_mul(len));
        }
        if points.is_none() {
            return invalid(format!("the sweep has more than {} points", usize::MAX));
        }
        // Duplicate axis values would double-weight cross-app averages
        // (and duplicate frontier rows), so reject them outright: two
        // values that print the same cell are duplicates.
        for Axis { key, field, .. } in &AXES {
            let mut cells = field.cells(self);
            cells.sort_unstable();
            if cells.windows(2).any(|w| w[0] == w[1]) {
                return invalid(format!("axis `{key}` has duplicate values"));
            }
        }
        // Upper bound well past 16K-per-eye but far from the u64
        // overflow of downstream `pixels * samples` workload math.
        const MAX_PIXELS: u64 = 1 << 33;
        for &px in &self.pixels {
            if px == 0 || px > MAX_PIXELS {
                return invalid(format!("pixels must be in 1..={MAX_PIXELS}, got {px}"));
            }
        }
        // Every other bound is the model's own: each value of every
        // axis, set on the default spec's first point, must pass
        // `NgpcConfig::validate`. Its field checks are independent, so
        // this accepts exactly the specs whose every point is valid.
        for Axis { key, field, .. } in &AXES {
            for cell in field.cells(self) {
                let mut point = DesignPoint::base();
                field.read(&mut point, &cell).expect("an axis reads back the cells it writes");
                let input = point.emulator_input();
                NgpcConfig { nfp_units: input.nfp_units, nfp: input.nfp }
                    .validate()
                    .map_err(|e| SpecError::Invalid(format!("axis `{key}` value {cell}: {e}")))?;
            }
        }
        Ok(())
    }

    /// Expand the cartesian product in [`Space`] order: point `i` has
    /// `index == i`. The arch positions advance as an odometer (last
    /// axis fastest), which is cheaper than decoding every index.
    pub fn points(&self) -> Vec<DesignPoint> {
        let space = Space::new(self);
        let mut out = Vec::with_capacity(self.point_count());
        let mut idx = [0; ARCH_AXES];
        let mut app_i = 0;
        for index in 0..self.point_count() {
            out.push(space.at(&idx, app_i, index));
            if space.advance(&mut idx).is_none() {
                app_i += 1;
            }
        }
        out
    }

    /// Parse a spec from the TOML subset documented in the README:
    /// top-level `key = value` pairs (value: a scalar or a single-line
    /// array, items optionally quoted) plus an optional `[constraints]`
    /// table. An item reads as the matching `dse` flag's list item does
    /// ([`Axis::set_list`], [`Constraints::set`]). Unspecified axes keep
    /// [`SweepSpec::default`] values.
    pub fn from_toml_str(text: &str) -> Result<Self, SpecError> {
        let mut spec = SweepSpec::default();
        let mut in_constraints = false;
        for (i, raw) in text.lines().enumerate() {
            let parse_err = |message: String| SpecError::Parse { line: i + 1, message };
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                if name.trim() != "constraints" {
                    return Err(parse_err(format!("unknown table `[{}]`", name.trim())));
                }
                in_constraints = true;
                continue;
            }
            let (key, value) =
                line.split_once('=').ok_or_else(|| parse_err("expected `key = value`".into()))?;
            let items = spec_items(value.trim()).map_err(parse_err)?;
            apply_key(&mut spec, in_constraints, key.trim(), &items).map_err(parse_err)?;
        }
        spec.validate()?;
        Ok(spec)
    }
}

/// Number of architecture axes: every [`SweepSpec`] axis except `apps`.
pub const ARCH_AXES: usize = AXES.len() - 1;

/// An architecture: one position per arch axis, in [`SweepSpec`] field
/// order (`encodings` first, `input_fifo_depth` last).
pub type ArchIdx = [u32; ARCH_AXES];

/// A spec's index space: the mixed-radix layout every consumer reads
/// positions from.
///
/// Apps are the most significant digit, then the 11 arch axes in
/// [`SweepSpec`] field order, so design point `flat` is app
/// `flat / arch_count` on architecture `flat % arch_count`, and
/// architecture `k`'s app points are `k`, `k + arch_count`, ...
/// [`SweepSpec::points`] enumerates in this order, the cross-app fold
/// strides through it, and the guided searcher moves on [`ArchIdx`]
/// positions of it.
#[derive(Debug, Clone, Copy)]
pub struct Space<'a> {
    /// The spec whose axes this space indexes.
    pub(crate) spec: &'a SweepSpec,
    /// Length of each arch axis.
    pub(crate) dims: [usize; ARCH_AXES],
}

impl<'a> Space<'a> {
    /// The index space of `spec`.
    pub fn new(spec: &'a SweepSpec) -> Self {
        Space { spec, dims: std::array::from_fn(|i| AXES[i + 1].field.len(spec)) }
    }

    /// Architectures in the space (design points per app).
    pub fn arch_count(&self) -> usize {
        self.dims.iter().product()
    }

    /// Decode a flat arch number, row-major over the arch axes.
    pub fn decode(&self, mut flat: usize) -> ArchIdx {
        let mut idx = [0; ARCH_AXES];
        for i in (0..ARCH_AXES).rev() {
            idx[i] = (flat % self.dims[i]) as u32;
            flat /= self.dims[i];
        }
        idx
    }

    /// A uniformly random architecture: one bounded draw per axis, in
    /// axis order.
    pub fn random(&self, rng: &mut Pcg32) -> ArchIdx {
        let mut idx = [0; ARCH_AXES];
        for (i, &d) in self.dims.iter().enumerate() {
            idx[i] = rng.bounded(d as u32);
        }
        idx
    }

    /// `idx` moved one position along `axis` (`dir` is -1 or +1), or
    /// `None` past either end of the axis.
    pub fn step(&self, idx: &ArchIdx, axis: usize, dir: i32) -> Option<ArchIdx> {
        let pos = idx[axis].checked_add_signed(dir)?;
        let mut moved = *idx;
        moved[axis] = pos;
        ((pos as usize) < self.dims[axis]).then_some(moved)
    }

    /// The design point of architecture `idx` under app number `app_i`,
    /// carrying its spec index `app_i * arch_count + arch`.
    pub fn point(&self, idx: &ArchIdx, app_i: usize) -> DesignPoint {
        self.at(idx, app_i, app_i * self.arch_count() + self.flat(idx))
    }

    /// The flat arch number of `idx`: the inverse of [`Space::decode`].
    pub(crate) fn flat(&self, idx: &ArchIdx) -> usize {
        idx.iter().zip(&self.dims).fold(0, |flat, (&i, &d)| flat * d + i as usize)
    }

    /// The position → value mapping: the point at `idx` under app
    /// `app_i`, stamped with `index`.
    pub(crate) fn at(&self, idx: &ArchIdx, app_i: usize, index: usize) -> DesignPoint {
        let s = self.spec;
        DesignPoint {
            index,
            app: s.apps[app_i],
            encoding: s.encodings[idx[0] as usize],
            pixels: s.pixels[idx[1] as usize],
            nfp_units: s.nfp_units[idx[2] as usize],
            clock_ghz: s.clock_ghz[idx[3] as usize],
            grid_sram_kb: s.grid_sram_kb[idx[4] as usize],
            grid_sram_banks: s.grid_sram_banks[idx[5] as usize],
            encoding_engines: s.encoding_engines[idx[6] as usize],
            mac_rows: s.mac_rows[idx[7] as usize],
            mac_cols: s.mac_cols[idx[8] as usize],
            lanes_per_engine: s.lanes_per_engine[idx[9] as usize],
            input_fifo_depth: s.input_fifo_depth[idx[10] as usize],
        }
    }

    /// Step `idx` to the next architecture in row-major order. Returns
    /// the arch axis the step stops at (every later axis wraps to
    /// position 0), or `None` when it wraps from the last architecture
    /// back to the first.
    pub(crate) fn advance(&self, idx: &mut ArchIdx) -> Option<usize> {
        for i in (0..ARCH_AXES).rev() {
            idx[i] += 1;
            if (idx[i] as usize) < self.dims[i] {
                return Some(i);
            }
            idx[i] = 0;
        }
        None
    }
}

/// Strip a `#` comment, respecting (simple, escape-free) quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

/// The items of a spec value, a scalar or a single-line `[a, b]` array,
/// with their quotes stripped.
fn spec_items(value: &str) -> Result<Vec<&str>, String> {
    let items: Vec<&str> = match value.strip_prefix('[') {
        Some(body) => {
            body.strip_suffix(']').ok_or("array must close on the same line")?.split(',').collect()
        }
        None => vec![value],
    };
    items
        .into_iter()
        .map(str::trim)
        .filter(|item| !item.is_empty()) // tolerate a trailing comma
        .map(|item| match item.strip_prefix('"') {
            Some(quoted) => quoted.strip_suffix('"').ok_or(format!("unterminated string: {item}")),
            None => Ok(item),
        })
        .collect()
}

/// Set `key` of `spec` to a spec line's `items`: a bound of
/// `[constraints]` when `bound`, else the name or an axis. Bounds and
/// axes read their items as the matching `dse` flag does.
fn apply_key(spec: &mut SweepSpec, bound: bool, key: &str, items: &[&str]) -> Result<(), String> {
    let one = || match items {
        [text] => Ok(*text),
        _ => Err(format!("{key}: expected one value")),
    };
    if bound {
        return spec.constraints.set(key, one()?);
    }
    if key == "name" {
        spec.name = one()?.to_string();
        return Ok(());
    }
    let axis = AXES.iter().find(|a| a.key == key).ok_or(format!("unknown key `{key}`"))?;
    axis.field.set_items(spec, items).map_err(|item| format!("{key}: cannot parse `{item}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_preset_covers_the_papers_points() {
        let spec = SweepSpec::paper();
        spec.validate().unwrap();
        assert!(spec.point_count() >= 500, "{}", spec.point_count());
        assert_eq!(spec.point_count(), spec.points().len());
        assert_eq!(spec.apps, AppKind::ALL.to_vec());
        // The NGPC-64 headline configuration is one of the points.
        let headline = spec.points().into_iter().find(|p| {
            p.app == AppKind::Nerf
                && p.encoding == EncodingKind::MultiResHashGrid
                && p.nfp_units == 64
                && p.clock_ghz == 1.0
                && p.grid_sram_kb == 1024
                && p.grid_sram_banks == 8
        });
        assert!(headline.is_some());
    }

    #[test]
    fn points_follow_the_space_layout() {
        // Mixed axis lengths catch a swapped radix that equal lengths
        // would hide.
        let mixed = SweepSpec {
            apps: vec![AppKind::Nerf, AppKind::Gia],
            encodings: EncodingKind::ALL.to_vec(),
            nfp_units: vec![8, 16, 64],
            lanes_per_engine: vec![1, 2],
            input_fifo_depth: vec![8, 64],
            ..SweepSpec::default()
        };
        for spec in [SweepSpec::mac_arrays(), mixed] {
            let space = Space::new(&spec);
            let archs = space.arch_count();
            let points = spec.points();
            assert_eq!(points.len(), spec.point_count());
            assert_eq!(archs * spec.apps.len(), spec.point_count());
            for (i, p) in points.iter().enumerate() {
                assert_eq!(p.index, i);
                // Mixed-radix digits of `i`, least significant first.
                let mut rest = i;
                let mut digit = |len: usize| {
                    let d = rest % len;
                    rest /= len;
                    d
                };
                assert_eq!(p.input_fifo_depth, spec.input_fifo_depth[digit(space.dims[10])]);
                assert_eq!(p.lanes_per_engine, spec.lanes_per_engine[digit(space.dims[9])]);
                assert_eq!(p.mac_cols, spec.mac_cols[digit(space.dims[8])]);
                assert_eq!(p.mac_rows, spec.mac_rows[digit(space.dims[7])]);
                assert_eq!(p.encoding_engines, spec.encoding_engines[digit(space.dims[6])]);
                assert_eq!(p.grid_sram_banks, spec.grid_sram_banks[digit(space.dims[5])]);
                assert_eq!(p.grid_sram_kb, spec.grid_sram_kb[digit(space.dims[4])]);
                assert_eq!(p.clock_ghz, spec.clock_ghz[digit(space.dims[3])]);
                assert_eq!(p.nfp_units, spec.nfp_units[digit(space.dims[2])]);
                assert_eq!(p.pixels, spec.pixels[digit(space.dims[1])]);
                assert_eq!(p.encoding, spec.encodings[digit(space.dims[0])]);
                assert_eq!(p.app, spec.apps[digit(spec.apps.len())]);
                assert_eq!(rest, 0);
                assert_eq!(space.point(&space.decode(i % archs), i / archs), *p);
            }
        }
    }

    #[test]
    fn design_point_maps_onto_emulator_input() {
        let p = DesignPoint {
            index: 0,
            app: AppKind::Gia,
            encoding: EncodingKind::LowResDenseGrid,
            pixels: Resolution::Uhd4k.pixels(),
            nfp_units: 32,
            clock_ghz: 1.5,
            grid_sram_kb: 512,
            grid_sram_banks: 4,
            encoding_engines: 8,
            mac_rows: 32,
            mac_cols: 128,
            lanes_per_engine: 2,
            input_fifo_depth: 32,
        };
        let input = p.emulator_input();
        assert_eq!(input.app, AppKind::Gia);
        assert_eq!(input.pixels, Resolution::Uhd4k.pixels());
        assert_eq!(input.nfp.grid_sram_bytes, 512 * 1024);
        assert_eq!(input.nfp.grid_sram_banks, 4);
        assert_eq!(input.nfp.clock_ghz, 1.5);
        assert_eq!(input.nfp.encoding_engines, 8);
        assert_eq!(input.nfp.mac_rows, 32);
        assert_eq!(input.nfp.mac_cols, 128);
        assert_eq!(input.nfp.lanes_per_engine, 2);
        assert_eq!(input.nfp.input_fifo_depth, 32);
    }

    #[test]
    fn toml_round_trip() {
        let text = r#"
            # sweep for the area-budget study
            name = "budget"
            apps = ["nerf", gia]   # bare slugs and quoted numbers read as the flags read them
            encodings = ["hashgrid"]
            nfp_units = [8, "16", 32, 64]
            clock_ghz = [0.5, 1.0]
            grid_sram_kb = [512, 1024]
            grid_sram_banks = 8

            [constraints]
            max_area_pct = 3.0   # stay under 3% of the die
            min_speedup = 2.0
        "#;
        let spec = SweepSpec::from_toml_str(text).unwrap();
        assert_eq!(spec.name, "budget");
        assert_eq!(spec.apps, vec![AppKind::Nerf, AppKind::Gia]);
        assert_eq!(spec.nfp_units, vec![8, 16, 32, 64]);
        assert_eq!(spec.clock_ghz, vec![0.5, 1.0]);
        assert_eq!(spec.grid_sram_banks, vec![8]);
        assert_eq!(spec.constraints.max_area_pct, Some(3.0));
        assert_eq!(spec.constraints.min_speedup, Some(2.0));
        assert_eq!(spec.constraints.max_power_pct, None);
        // Unspecified axes keep defaults.
        assert_eq!(spec.pixels, vec![FHD_PIXELS]);
        // 2 apps x 4 nfp_units x 2 clocks x 2 srams, single everything else.
        assert_eq!(spec.point_count(), 2 * 4 * 2 * 2);
    }

    #[test]
    fn toml_errors_carry_line_numbers() {
        let err = SweepSpec::from_toml_str("apps = [\"nerf\"]\nbogus = 3\n").unwrap_err();
        assert_eq!(err, SpecError::Parse { line: 2, message: "unknown key `bogus`".to_string() });
        let err = SweepSpec::from_toml_str("apps = [\"quake\"]").unwrap_err();
        assert!(matches!(err, SpecError::Parse { line: 1, .. }), "{err}");
        let err = SweepSpec::from_toml_str("[weird]\n").unwrap_err();
        assert!(matches!(err, SpecError::Parse { line: 1, .. }), "{err}");
        // A spec line reads its items as the matching flag does: no `8.0`
        // or `1e6` on an integer axis, no NaN bound, no negative budget.
        for (text, key) in [
            ("[constraints]\nmax_area_pct = nan", "max_area_pct"),
            ("[constraints]\nmax_power_pct = -1", "max_power_pct"),
            ("[constraints]\nmin_speedup = inf", "min_speedup"),
            ("name = \"x\"\nnfp_units = [8.0]", "nfp_units"),
            ("name = \"x\"\npixels = 1e6", "pixels"),
        ] {
            match SweepSpec::from_toml_str(text) {
                Err(SpecError::Parse { line: 2, message }) => {
                    assert!(message.starts_with(&format!("{key}: ")), "{text}: {message}")
                }
                other => panic!("{text}: expected a line-2 parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn validation_rejects_bad_axes() {
        let mut spec = SweepSpec::quick();
        spec.nfp_units.clear();
        assert!(matches!(spec.validate(), Err(SpecError::Invalid(_))));
        let mut spec = SweepSpec::quick();
        spec.grid_sram_banks = vec![3];
        assert!(spec.validate().is_err(), "non-power-of-two banks");
        let mut spec = SweepSpec::quick();
        spec.clock_ghz = vec![99.0];
        assert!(spec.validate().is_err());
        let mut spec = SweepSpec::quick();
        spec.pixels = vec![2_000_000_000_000_000_000];
        assert!(spec.validate().is_err(), "pixels beyond the workload-math overflow bound");
        let mut spec = SweepSpec::quick();
        spec.pixels = vec![0];
        assert!(spec.validate().is_err());
    }

    #[test]
    fn mac_arrays_preset_spans_the_new_axes() {
        let spec = SweepSpec::mac_arrays();
        spec.validate().unwrap();
        assert_eq!(spec.encoding_engines, vec![8, 16, 32]);
        assert_eq!(spec.mac_rows, vec![32, 64, 128]);
        assert_eq!(spec.mac_cols, vec![32, 64, 128]);
        // 4 apps x 4 unit counts x 3 engines x 3 rows x 3 cols.
        assert_eq!(spec.point_count(), 4 * 4 * 3 * 3 * 3);
        // The paper's NFP is one of the points at every unit count.
        let paper_points = spec
            .points()
            .into_iter()
            .filter(|p| p.encoding_engines == 16 && p.mac_rows == 64 && p.mac_cols == 64)
            .count();
        assert_eq!(paper_points, 4 * 4);
    }

    /// Validate `spec` after `mutate`, expecting a spec-level error
    /// (not a mid-sweep panic) that names the axis and the value.
    fn assert_rejected(mutate: fn(&mut SweepSpec), axis_and_value: &str) {
        let mut spec = SweepSpec::quick();
        mutate(&mut spec);
        match spec.validate() {
            Err(SpecError::Invalid(m)) => {
                assert!(m.starts_with(&format!("{axis_and_value}: ")), "{m}")
            }
            other => panic!("{axis_and_value}: expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn validation_rejects_degenerate_engine_and_mac_axes() {
        assert_rejected(|s| s.encoding_engines = vec![0], "axis `encoding_engines` value 0");
        assert_rejected(
            |s| s.encoding_engines = vec![16, 128],
            "axis `encoding_engines` value 128",
        );
        assert_rejected(|s| s.mac_rows = vec![0], "axis `mac_rows` value 0");
        assert_rejected(|s| s.mac_rows = vec![2048], "axis `mac_rows` value 2048");
        assert_rejected(|s| s.mac_cols = vec![0], "axis `mac_cols` value 0");
        assert_rejected(|s| s.mac_cols = vec![4096], "axis `mac_cols` value 4096");
        assert_rejected(|s| s.nfp_units = vec![8, 0], "axis `nfp_units` value 0");
        assert_rejected(|s| s.nfp_units = vec![1025], "axis `nfp_units` value 1025");
        assert_rejected(|s| s.grid_sram_kb = vec![2], "axis `grid_sram_kb` value 2");
        assert_rejected(|s| s.grid_sram_banks = vec![8, 3], "axis `grid_sram_banks` value 3");
        assert_rejected(|s| s.clock_ghz = vec![0.05], "axis `clock_ghz` value 0.05");
        assert_rejected(|s| s.clock_ghz = vec![f64::NAN], "axis `clock_ghz` value NaN");
        // Empty axes are rejected like every other axis.
        let mut spec = SweepSpec::quick();
        spec.mac_rows.clear();
        assert_eq!(
            spec.validate(),
            Err(SpecError::Invalid("axis `mac_rows` is empty".to_string()))
        );
    }

    #[test]
    fn validation_accepts_every_bound_of_the_model() {
        let spec = SweepSpec {
            nfp_units: vec![1, 1024],
            clock_ghz: vec![0.1, 5.0],
            grid_sram_kb: vec![4, 1 << 20],
            grid_sram_banks: vec![1, 1 << 31],
            encoding_engines: vec![1, 64],
            mac_rows: vec![1, 1024],
            mac_cols: vec![1, 1024],
            lanes_per_engine: vec![1, 16],
            input_fifo_depth: vec![1, 4096],
            ..SweepSpec::quick()
        };
        assert_eq!(spec.validate(), Ok(()));
    }

    #[test]
    fn toml_parses_the_new_axes() {
        let spec = SweepSpec::from_toml_str(
            "encoding_engines = [8, 16]\nmac_rows = [32, 64]\nmac_cols = 64\n",
        )
        .unwrap();
        assert_eq!(spec.encoding_engines, vec![8, 16]);
        assert_eq!(spec.mac_rows, vec![32, 64]);
        assert_eq!(spec.mac_cols, vec![64]);
        assert_eq!(spec.point_count(), 4 * 4 * 2 * 2);
        let err = SweepSpec::from_toml_str("mac_rows = [0]\n").unwrap_err();
        assert!(matches!(err, SpecError::Invalid(_)), "{err}");
    }

    #[test]
    fn guided_lanes_preset_spans_the_full_space() {
        let spec = SweepSpec::guided_lanes();
        spec.validate().unwrap();
        // 1080 points of the paper axes (sans the 2 MB SRAM point) x
        // 3 engines x 3 rows x 3 cols x 3 lanes x 3 fifos = 262,440 —
        // the exploded space of the ISSUE.
        assert_eq!(spec.point_count(), 1080 * 243);
        assert_eq!(spec.grid_sram_kb, vec![256, 512, 1024]);
        assert_eq!(spec.lanes_per_engine, vec![1, 2, 4]);
        assert_eq!(spec.input_fifo_depth, vec![2, 8, 64]);
        // The FIFO axis must not sample [16, 64): those depths match the
        // paper's overlap at strictly less area and would evict the
        // NGPC-64 headline point from the frontier by construction.
        assert!(spec.input_fifo_depth.iter().all(|&d| !(16..64).contains(&d)));
        // The paper's NFP (lanes 1, 64-deep FIFO) is in the space.
        let headline = spec.points().into_iter().find(|p| {
            p.nfp_units == 64
                && p.encoding_engines == 16
                && p.mac_rows == 64
                && p.mac_cols == 64
                && p.lanes_per_engine == 1
                && p.input_fifo_depth == 64
        });
        assert!(headline.is_some());
    }

    #[test]
    fn validation_rejects_degenerate_lane_and_fifo_axes() {
        assert_rejected(|s| s.lanes_per_engine = vec![0], "axis `lanes_per_engine` value 0");
        assert_rejected(|s| s.lanes_per_engine = vec![32], "axis `lanes_per_engine` value 32");
        assert_rejected(|s| s.input_fifo_depth = vec![0], "axis `input_fifo_depth` value 0");
        assert_rejected(|s| s.input_fifo_depth = vec![8192], "axis `input_fifo_depth` value 8192");
        let mut spec = SweepSpec::quick();
        spec.input_fifo_depth.clear();
        assert_eq!(
            spec.validate(),
            Err(SpecError::Invalid("axis `input_fifo_depth` is empty".to_string()))
        );
        let mut spec = SweepSpec::quick();
        spec.lanes_per_engine = vec![1, 1];
        assert!(spec.validate().is_err(), "duplicate lane values");
    }

    #[test]
    fn toml_parses_the_lane_and_fifo_axes() {
        let spec =
            SweepSpec::from_toml_str("lanes_per_engine = [1, 2, 4]\ninput_fifo_depth = [8, 64]\n")
                .unwrap();
        assert_eq!(spec.lanes_per_engine, vec![1, 2, 4]);
        assert_eq!(spec.input_fifo_depth, vec![8, 64]);
        assert_eq!(spec.point_count(), 4 * 4 * 3 * 2);
        // Degenerate values error at parse time through validate().
        let err = SweepSpec::from_toml_str("lanes_per_engine = [0]\n").unwrap_err();
        assert!(matches!(err, SpecError::Invalid(_)), "{err}");
    }

    #[test]
    fn validation_rejects_duplicate_axis_values() {
        let mut spec = SweepSpec::quick();
        spec.apps = vec![AppKind::Nerf, AppKind::Nerf, AppKind::Gia];
        assert!(spec.validate().is_err(), "duplicate app would double-weight the average");
        let mut spec = SweepSpec::quick();
        spec.nfp_units = vec![8, 8];
        assert!(spec.validate().is_err());
        let mut spec = SweepSpec::quick();
        spec.clock_ghz = vec![1.0, 1.0];
        assert!(spec.validate().is_err());
    }

    #[test]
    fn toml_rejects_out_of_range_u32_axes() {
        // 2^32 + 1024 must error, not silently truncate to 1024.
        let err = SweepSpec::from_toml_str("grid_sram_kb = [4294968320]").unwrap_err();
        assert!(matches!(err, SpecError::Parse { line: 1, .. }), "{err}");
        let err = SweepSpec::from_toml_str("nfp_units = [4294967297]").unwrap_err();
        assert!(matches!(err, SpecError::Parse { line: 1, .. }), "{err}");
    }

    /// Every value of this spec is one `validate` accepts, but its
    /// architectures number 2^64, so the point count overflows. Only
    /// `validate` runs on it: nothing may build its tables.
    #[test]
    fn validation_rejects_a_point_count_that_overflows_usize() {
        let mut spec = SweepSpec {
            apps: vec![AppKind::Nerf],
            nfp_units: (1..=1024).collect(),
            clock_ghz: (0..128).map(|i| 0.1 + 0.03 * i as f64).collect(),
            grid_sram_banks: (0..32).map(|b| 1 << b).collect(),
            encoding_engines: (1..=64).collect(),
            mac_rows: (1..=1024).collect(),
            mac_cols: (1..=1024).collect(),
            lanes_per_engine: (1..=16).collect(),
            input_fifo_depth: (1..=4096).collect(),
            ..SweepSpec::quick()
        };
        let overflow = format!("the sweep has more than {} points", usize::MAX);
        assert_eq!(spec.validate(), Err(SpecError::Invalid(overflow)));
        // With one lane count, 2^60 architectures: every value passes.
        spec.lanes_per_engine.truncate(1);
        assert_eq!(spec.validate(), Ok(()));
    }

    /// Each axis reads from its TOML key, and the key sets that axis
    /// alone: two of its values through the TOML parser give the spec
    /// that `dse`'s list flag gives, which differs from the default on
    /// that axis only. An item the flag rejects, the spec line rejects
    /// too.
    #[test]
    fn each_axis_parses_from_its_toml_key_alone() {
        let presets = SweepSpec::PRESETS.map(|name| SweepSpec::preset(name).unwrap());
        for axis in &AXES {
            // The first two values of the preset that sweeps the most.
            let source = presets.iter().max_by_key(|s| axis.field.len(s)).unwrap();
            let mut want = SweepSpec::default();
            axis.set_list(&mut want, &axis.field.cells(source)[..2].join(",")).unwrap();
            assert_ne!(want, SweepSpec::default(), "{}", axis.key);
            let mut array = String::new();
            axis.field.write_values(&want, &mut array).unwrap();
            let got = SweepSpec::from_toml_str(&format!("{} = {array}", axis.key));
            assert_eq!(got, Ok(want), "{}", axis.key);

            // `64.0` on an integer axis, `nerf.0`, `0.5.0`: no axis reads it.
            let bad = format!("{}.0", axis.field.cells(source)[0]);
            let mut spec = SweepSpec::default();
            let err = axis.set_list(&mut spec, &bad).unwrap_err();
            assert_eq!(err, format!("{}: cannot parse `{bad}`", axis.flag));
            let err = SweepSpec::from_toml_str(&format!("{} = [{bad}]", axis.key)).unwrap_err();
            let message = format!("{}: cannot parse `{bad}`", axis.key);
            assert_eq!(err, SpecError::Parse { line: 1, message });
        }
    }

    #[test]
    fn presets_resolve_and_validate() {
        for name in SweepSpec::PRESETS {
            let spec = SweepSpec::preset(name).unwrap();
            spec.validate().unwrap();
            assert_eq!(spec.name, name);
        }
        assert!(SweepSpec::preset("nope").is_none());
    }
}
