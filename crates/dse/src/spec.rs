//! Declarative sweep specifications.
//!
//! A [`SweepSpec`] is a set of axes; the sweep is their cartesian
//! product. [`Space`] owns its one layout, row-major with apps
//! outermost and the input-FIFO depth innermost, so that point indices
//! — and therefore result files and reports — are stable for a given
//! spec.

use ng_neural::apps::{AppKind, EncodingKind};
use ng_neural::math::Pcg32;
use ngpc::{EmulatorInput, NfpConfig, NgpcConfig};

use crate::pareto::Constraints;

/// 1920x1080, the paper's evaluation resolution.
pub const FHD_PIXELS: u64 = 1920 * 1080;

/// 3840x2160.
pub const UHD_PIXELS: u64 = 3840 * 2160;

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
    match s.to_ascii_lowercase().as_str() {
        "nerf" => Some(AppKind::Nerf),
        "nsdf" => Some(AppKind::Nsdf),
        "gia" => Some(AppKind::Gia),
        "nvr" => Some(AppKind::Nvr),
        _ => None,
    }
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
    match s.to_ascii_lowercase().as_str() {
        "hashgrid" | "mrhg" => Some(EncodingKind::MultiResHashGrid),
        "densegrid" | "mrdg" => Some(EncodingKind::MultiResDenseGrid),
        "lowres" | "lrdg" => Some(EncodingKind::LowResDenseGrid),
        _ => None,
    }
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
    /// Human-readable sweep name (reported, not part of the cache key).
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
    /// Default reporting constraints: the full sweep is always
    /// evaluated, and constraints only filter what is reported.
    pub constraints: Constraints,
}

impl Default for SweepSpec {
    /// All four apps, hashgrid, FHD, the paper's scaling factors, and
    /// the paper's NFP everywhere else.
    fn default() -> Self {
        SweepSpec {
            name: "custom".to_string(),
            apps: AppKind::ALL.to_vec(),
            encodings: vec![EncodingKind::MultiResHashGrid],
            pixels: vec![FHD_PIXELS],
            nfp_units: NgpcConfig::SCALING_FACTORS.to_vec(),
            clock_ghz: vec![1.0],
            grid_sram_kb: vec![1024],
            grid_sram_banks: vec![8],
            encoding_engines: vec![16],
            mac_rows: vec![64],
            mac_cols: vec![64],
            lanes_per_engine: vec![1],
            input_fifo_depth: vec![64],
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

    /// Resolution scaling: FHD to 8K at the paper's scaling factors.
    pub fn resolutions() -> Self {
        SweepSpec {
            name: "resolutions".to_string(),
            pixels: vec![1280 * 720, FHD_PIXELS, 2560 * 1440, UHD_PIXELS, 7680 * 4320],
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

    /// The exploded 11-arch-axis space behind the guided searcher: the
    /// paper preset's axes crossed with the NFP-microarchitecture axes
    /// *and* the query-lane / input-FIFO axes — ~260k points, ~180x the
    /// paper preset and far past what an interactive exhaustive sweep
    /// wants to pay.
    ///
    /// Two axis choices keep the paper's NGPC-64 *organisation*
    /// recoverable from the exploded frontier (the CI win condition):
    /// the FIFO axis samples below the overlap knee (2, 8) plus the
    /// paper's 64 — depths in `[16, 64)` match the paper's full stage
    /// overlap at strictly less FIFO area everywhere and would evict
    /// the 64-entry design by construction — and the SRAM axis stops at
    /// the paper's 1 MB: with 2 MB SRAMs, 8 engines serving 2 level
    /// tables each match 16-engine throughput (the MLP stage is the
    /// bottleneck) at less area, which would evict every 16-engine
    /// organisation from the 64-unit frontier. The 2 MB sizing study
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

    /// Check the sweep is non-empty and every axis value is one the
    /// emulator accepts.
    pub fn validate(&self) -> Result<(), SpecError> {
        let axes: [(&str, usize); 12] = [
            ("apps", self.apps.len()),
            ("encodings", self.encodings.len()),
            ("pixels", self.pixels.len()),
            ("nfp_units", self.nfp_units.len()),
            ("clock_ghz", self.clock_ghz.len()),
            ("grid_sram_kb", self.grid_sram_kb.len()),
            ("grid_sram_banks", self.grid_sram_banks.len()),
            ("encoding_engines", self.encoding_engines.len()),
            ("mac_rows", self.mac_rows.len()),
            ("mac_cols", self.mac_cols.len()),
            ("lanes_per_engine", self.lanes_per_engine.len()),
            ("input_fifo_depth", self.input_fifo_depth.len()),
        ];
        for (name, len) in axes {
            if len == 0 {
                return Err(SpecError::Invalid(format!("axis `{name}` is empty")));
            }
            // `ArchIdx` positions are `u32`.
            if u32::try_from(len).is_err() {
                return Err(SpecError::Invalid(format!("axis `{name}` has over 2^32 values")));
            }
        }
        // Duplicate axis values would double-weight cross-app averages
        // (and duplicate frontier rows), so reject them outright.
        fn unique<T, K: Ord>(
            name: &str,
            values: &[T],
            key: impl Fn(&T) -> K,
        ) -> Result<(), SpecError> {
            let mut keys: Vec<K> = values.iter().map(key).collect();
            keys.sort_unstable();
            if keys.windows(2).any(|w| w[0] == w[1]) {
                return Err(SpecError::Invalid(format!("axis `{name}` has duplicate values")));
            }
            Ok(())
        }
        unique("apps", &self.apps, |&a| a as u8)?;
        unique("encodings", &self.encodings, |&e| e as u8)?;
        unique("pixels", &self.pixels, |&p| p)?;
        unique("nfp_units", &self.nfp_units, |&n| n)?;
        unique("clock_ghz", &self.clock_ghz, |&c| c.to_bits())?;
        unique("grid_sram_kb", &self.grid_sram_kb, |&k| k)?;
        unique("grid_sram_banks", &self.grid_sram_banks, |&b| b)?;
        unique("encoding_engines", &self.encoding_engines, |&e| e)?;
        unique("mac_rows", &self.mac_rows, |&r| r)?;
        unique("mac_cols", &self.mac_cols, |&c| c)?;
        unique("lanes_per_engine", &self.lanes_per_engine, |&l| l)?;
        unique("input_fifo_depth", &self.input_fifo_depth, |&d| d)?;
        // Upper bound well past 16K-per-eye but far from the u64
        // overflow of downstream `pixels * samples` workload math.
        const MAX_PIXELS: u64 = 1 << 33;
        for &px in &self.pixels {
            if px == 0 || px > MAX_PIXELS {
                return Err(SpecError::Invalid(format!(
                    "pixels must be in 1..={MAX_PIXELS}, got {px}"
                )));
            }
        }
        // Every other bound is the model's own: each value of
        // `nfp_units` and of every NFP axis, set on the default spec's
        // first point, must pass `NgpcConfig::validate`. Its field
        // checks are independent, so this accepts exactly the specs
        // whose every point is valid.
        fn each<T: Copy + std::fmt::Display>(
            axis: &str,
            values: &[T],
            set: impl Fn(&mut DesignPoint, T),
        ) -> Result<(), SpecError> {
            let default = SweepSpec::default();
            let base = Space::new(&default).point(&[0; ARCH_AXES], 0);
            values.iter().try_for_each(|&v| {
                let mut point = base;
                set(&mut point, v);
                let input = point.emulator_input();
                NgpcConfig { nfp_units: input.nfp_units, nfp: input.nfp }
                    .validate()
                    .map_err(|e| SpecError::Invalid(format!("axis `{axis}` value {v}: {e}")))
            })
        }
        each("nfp_units", &self.nfp_units, |p, v| p.nfp_units = v)?;
        each("clock_ghz", &self.clock_ghz, |p, v| p.clock_ghz = v)?;
        each("grid_sram_kb", &self.grid_sram_kb, |p, v| p.grid_sram_kb = v)?;
        each("grid_sram_banks", &self.grid_sram_banks, |p, v| p.grid_sram_banks = v)?;
        each("encoding_engines", &self.encoding_engines, |p, v| p.encoding_engines = v)?;
        each("mac_rows", &self.mac_rows, |p, v| p.mac_rows = v)?;
        each("mac_cols", &self.mac_cols, |p, v| p.mac_cols = v)?;
        each("lanes_per_engine", &self.lanes_per_engine, |p, v| p.lanes_per_engine = v)?;
        each("input_fifo_depth", &self.input_fifo_depth, |p, v| p.input_fifo_depth = v)?;
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
            if space.advance(&mut idx) {
                app_i += 1;
            }
        }
        out
    }

    /// Parse a spec from the TOML subset documented in the README:
    /// top-level `key = value` pairs (value: number, `"string"`, or a
    /// single-line array of either) plus an optional `[constraints]`
    /// table. Unspecified axes keep [`SweepSpec::default`] values.
    pub fn from_toml_str(text: &str) -> Result<Self, SpecError> {
        let mut spec = SweepSpec::default();
        let mut section = String::new();
        for (i, raw) in text.lines().enumerate() {
            let lineno = i + 1;
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = name.trim().to_string();
                if section != "constraints" {
                    return Err(SpecError::Parse {
                        line: lineno,
                        message: format!("unknown table `[{section}]`"),
                    });
                }
                continue;
            }
            let (key, value) = line.split_once('=').ok_or(SpecError::Parse {
                line: lineno,
                message: "expected `key = value`".to_string(),
            })?;
            let key = key.trim();
            let value = parse_value(value.trim())
                .map_err(|message| SpecError::Parse { line: lineno, message })?;
            apply_key(&mut spec, &section, key, value)
                .map_err(|message| SpecError::Parse { line: lineno, message })?;
        }
        spec.validate()?;
        Ok(spec)
    }
}

/// Number of architecture axes: every [`SweepSpec`] axis except `apps`.
pub const ARCH_AXES: usize = 11;

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
        let dims = [
            spec.encodings.len(),
            spec.pixels.len(),
            spec.nfp_units.len(),
            spec.clock_ghz.len(),
            spec.grid_sram_kb.len(),
            spec.grid_sram_banks.len(),
            spec.encoding_engines.len(),
            spec.mac_rows.len(),
            spec.mac_cols.len(),
            spec.lanes_per_engine.len(),
            spec.input_fifo_depth.len(),
        ];
        Space { spec, dims }
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
    /// `true` when it wraps from the last architecture back to the
    /// first.
    pub(crate) fn advance(&self, idx: &mut ArchIdx) -> bool {
        for i in (0..ARCH_AXES).rev() {
            idx[i] += 1;
            if (idx[i] as usize) < self.dims[i] {
                return false;
            }
            idx[i] = 0;
        }
        true
    }
}

/// A parsed TOML value (subset: scalars and flat arrays).
#[derive(Debug, Clone, PartialEq)]
enum TomlValue {
    Number(f64),
    Text(String),
    Array(Vec<TomlValue>),
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

fn parse_scalar(s: &str) -> Result<TomlValue, String> {
    let s = s.trim();
    if let Some(stripped) = s.strip_prefix('"') {
        let inner = stripped.strip_suffix('"').ok_or(format!("unterminated string: {s}"))?;
        return Ok(TomlValue::Text(inner.to_string()));
    }
    s.parse::<f64>().map(TomlValue::Number).map_err(|_| format!("not a number: `{s}`"))
}

fn parse_value(s: &str) -> Result<TomlValue, String> {
    if let Some(body) = s.strip_prefix('[') {
        let body = body.strip_suffix(']').ok_or("array must close on the same line")?;
        let body = body.trim();
        if body.is_empty() {
            return Ok(TomlValue::Array(Vec::new()));
        }
        return body
            .split(',')
            .filter(|part| !part.trim().is_empty()) // tolerate trailing comma
            .map(parse_scalar)
            .collect::<Result<Vec<_>, _>>()
            .map(TomlValue::Array);
    }
    parse_scalar(s)
}

/// Coerce a scalar-or-array value into a vector of items parsed by `f`.
fn coerce_vec<T>(
    value: TomlValue,
    f: impl Fn(&TomlValue) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    match value {
        TomlValue::Array(items) => items.iter().map(&f).collect(),
        scalar => Ok(vec![f(&scalar)?]),
    }
}

fn as_number(v: &TomlValue) -> Result<f64, String> {
    match v {
        TomlValue::Number(n) => Ok(*n),
        other => Err(format!("expected a number, got {other:?}")),
    }
}

fn as_integer(v: &TomlValue, what: &str) -> Result<u64, String> {
    let n = as_number(v)?;
    if n.fract() != 0.0 || n < 0.0 || n > u64::MAX as f64 {
        return Err(format!("{what} must be a non-negative integer, got {n}"));
    }
    Ok(n as u64)
}

fn as_u32(v: &TomlValue, what: &str) -> Result<u32, String> {
    u32::try_from(as_integer(v, what)?).map_err(|_| format!("{what} must fit in 32 bits"))
}

fn as_text(v: &TomlValue) -> Result<&str, String> {
    match v {
        TomlValue::Text(s) => Ok(s),
        other => Err(format!("expected a string, got {other:?}")),
    }
}

fn apply_key(
    spec: &mut SweepSpec,
    section: &str,
    key: &str,
    value: TomlValue,
) -> Result<(), String> {
    if section == "constraints" {
        let bound = Some(as_number(&value)?);
        match key {
            "max_area_pct" => spec.constraints.max_area_pct = bound,
            "max_power_pct" => spec.constraints.max_power_pct = bound,
            "min_speedup" => spec.constraints.min_speedup = bound,
            _ => return Err(format!("unknown constraint `{key}`")),
        }
        return Ok(());
    }
    match key {
        "name" => spec.name = as_text(&value)?.to_string(),
        "apps" => {
            spec.apps = coerce_vec(value, |v| {
                let s = as_text(v)?;
                parse_app(s).ok_or(format!("unknown app `{s}` (nerf/nsdf/gia/nvr)"))
            })?
        }
        "encodings" => {
            spec.encodings = coerce_vec(value, |v| {
                let s = as_text(v)?;
                parse_encoding(s)
                    .ok_or(format!("unknown encoding `{s}` (hashgrid/densegrid/lowres)"))
            })?
        }
        "pixels" => spec.pixels = coerce_vec(value, |v| as_integer(v, "pixels"))?,
        "nfp_units" => spec.nfp_units = coerce_vec(value, |v| as_u32(v, "nfp_units"))?,
        "clock_ghz" => spec.clock_ghz = coerce_vec(value, as_number)?,
        "grid_sram_kb" => spec.grid_sram_kb = coerce_vec(value, |v| as_u32(v, "grid_sram_kb"))?,
        "grid_sram_banks" => {
            spec.grid_sram_banks = coerce_vec(value, |v| as_u32(v, "grid_sram_banks"))?
        }
        "encoding_engines" => {
            spec.encoding_engines = coerce_vec(value, |v| as_u32(v, "encoding_engines"))?
        }
        "mac_rows" => spec.mac_rows = coerce_vec(value, |v| as_u32(v, "mac_rows"))?,
        "mac_cols" => spec.mac_cols = coerce_vec(value, |v| as_u32(v, "mac_cols"))?,
        "lanes_per_engine" => {
            spec.lanes_per_engine = coerce_vec(value, |v| as_u32(v, "lanes_per_engine"))?
        }
        "input_fifo_depth" => {
            spec.input_fifo_depth = coerce_vec(value, |v| as_u32(v, "input_fifo_depth"))?
        }
        _ => return Err(format!("unknown key `{key}`")),
    }
    Ok(())
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
            pixels: UHD_PIXELS,
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
        assert_eq!(input.pixels, UHD_PIXELS);
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
            apps = ["nerf", "gia"]
            encodings = ["hashgrid"]
            nfp_units = [8, 16, 32, 64]
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
