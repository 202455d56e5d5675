//! Factorised evaluation: the one scorer of the sweep and the guided
//! searcher.
//!
//! The emulator is a composition of separable factors (paper Fig. 11):
//! the GPU baseline reads (app, encoding, pixels), the per-NFP
//! area/power budget reads the floorplan, and each slope factor reads a
//! few more axes. The budget is the combine of three components, each
//! reading fewer axes than the floorplan, so each component has its own
//! table and a budget entry combines three component entries.
//! [`FactorTables`] evaluates each factor once per distinct tuple of the
//! axes it reads, into a dense table indexed by [`Space`] positions.
//! Every entry comes from the function [`ngpc::emulate`] calls, and the
//! slope is multiplied in [`ngpc::SlopeFactors::slope`]'s order (the
//! `slope_prefix` table holds its left-to-right product up to the MAC/
//! engine factor), so the results are bit-identical to `emulate` by
//! construction.
//!
//! A table's key is a subset of the space's axes, so no table is larger
//! than the point count. The sweep's workers and the guided searcher
//! share one scorer, which computes per architecture only what the
//! frontiers read: the cluster's area and power percentages (once,
//! since no app reads them), each app's speedup and their cross-app
//! mean. A worker walks its range of architectures as an odometer: each
//! table slot moves by a carry delta per table and axis, so no slot is
//! rebuilt from the axis positions ([`FactorTables::fold`]); the
//! searcher scores one architecture at a time
//! ([`FactorTables::score_at`]). Their frontiers hold flat numbers, and
//! only the survivors are decoded into [`ArchPoint`]s and
//! [`EvaluatedPoint`]s. The emitters refill the points in spec order,
//! one block at a time, through [`ngpc::compose`] on the same slots.
//!
//! The walk is bounded. The architectures that differ only in lanes and
//! FIFO depth, the last two arch axes, form a block, and two block
//! tables hold, per block, the largest `mac_engine` entry and the least
//! area and power. The scorer applied to them gives the block's
//! optimistic bound: the speedup, the percentages and the mean do not
//! get worse as a slope grows or a budget shrinks, so the bound is at
//! least as good as every member on every objective. When the walk's
//! [`Fold`] rejects the bound, it rejects every member, and the walk
//! skips the block unscored.

use std::io;
use std::ops::Range;

use ng_neural::apps::AppKind;
use ngpc::{cross_app_mean, GpuBaseline};

use crate::pareto::Objectives;
use crate::spec::{axis, ArchIdx, DesignPoint, Space, ARCH_AXES, AXES};
use crate::sweep::{ArchPoint, EvaluatedPoint};

// Axis numbers of a table key: rows of `AXES`, so the app axis is 0 and
// arch axis `i` of an `ArchIdx` is `i + 1`.
const APP: usize = axis("apps");
const ENCODING: usize = axis("encodings");
const PIXELS: usize = axis("pixels");
const NFP_UNITS: usize = axis("nfp_units");
const CLOCK: usize = axis("clock_ghz");
const SRAM_KB: usize = axis("grid_sram_kb");
const BANKS: usize = axis("grid_sram_banks");
const ENGINES: usize = axis("encoding_engines");
const MAC_ROWS: usize = axis("mac_rows");
const MAC_COLS: usize = axis("mac_cols");
const LANES: usize = axis("lanes_per_engine");
const FIFO: usize = axis("input_fifo_depth");

/// Slots of a [`Cursor`], one per table the walk reads: the scorer's
/// four, then the block tables' two.
const GPU: usize = 0;
const BUDGET: usize = 1;
const PREFIX: usize = 2;
const MAC_ENGINE: usize = 3;
const BUDGET_MIN: usize = 4;
const MAC_MAX: usize = 5;
const SLOTS: usize = 6;

/// The floorplan axes: every NFP axis, which are the trailing axes, so
/// a point's floorplan sits at `arch % floorplan_count`.
const FLOORPLAN: [usize; 8] = [CLOCK, SRAM_KB, BANKS, ENGINES, MAC_ROWS, MAC_COLS, LANES, FIFO];

/// The most apps a space has: a valid spec's apps are distinct.
const MAX_APPS: usize = AppKind::ALL.len();

/// Points per block: the emitters refill and write one block at a
/// time.
pub(crate) const BLOCK: usize = 4096;

/// One factor's values over the axes it reads, row-major in key order.
struct Table<T> {
    /// The model layer the table holds: its span name under `tables`.
    layer: &'static str,
    /// Stride of each axis (by axis number); 0 for the axes the factor
    /// does not read.
    strides: [usize; AXES.len()],
    /// What a slot gains when an architecture's odometer step stops at
    /// arch axis `i`: that axis's stride, less the strides of the later
    /// axes that wrap back to position 0 (modulo `usize`).
    carry: [usize; ARCH_AXES],
    values: Vec<T>,
}

impl<T> Table<T> {
    /// Evaluate `factor` once per distinct tuple of the `key` axes,
    /// under a span named `layer`. It sees the point at those positions
    /// with every other axis at position 0.
    fn build(
        space: &Space,
        layer: &'static str,
        key: &[usize],
        factor: impl Fn(&DesignPoint) -> T,
    ) -> Self {
        Self::build_at(space, layer, key, |idx, app| factor(&space.point(idx, app)))
    }

    /// [`Table::build`] over positions: `factor` sees the architecture
    /// and app number of each entry. The key positions are walked as an
    /// odometer, last key axis fastest, which is row-major key order.
    fn build_at(
        space: &Space,
        layer: &'static str,
        key: &[usize],
        mut factor: impl FnMut(&ArchIdx, usize) -> T,
    ) -> Self {
        let _span = ng_obs::span(layer);
        let radix =
            |axis: usize| if axis == APP { space.spec.apps.len() } else { space.dims[axis - 1] };
        let mut strides = [0; AXES.len()];
        let mut len = 1;
        for &axis in key.iter().rev() {
            strides[axis] = len;
            len *= radix(axis);
        }
        let mut carry = [0; ARCH_AXES];
        let mut wrapped = 0;
        for i in (0..ARCH_AXES).rev() {
            carry[i] = strides[i + 1].wrapping_sub(wrapped);
            wrapped += (space.dims[i] - 1) * strides[i + 1];
        }
        let mut pos = [0u32; AXES.len()];
        let mut values = Vec::with_capacity(len);
        for _ in 0..len {
            let idx = pos[APP + 1..].try_into().expect("ARCH_AXES positions");
            values.push(factor(idx, pos[APP] as usize));
            for &axis in key.iter().rev() {
                pos[axis] += 1;
                if (pos[axis] as usize) < radix(axis) {
                    break;
                }
                pos[axis] = 0;
            }
        }
        Table { layer, strides, carry, values }
    }

    /// The block table of this one, under a span named `layer`: per
    /// tuple of this table's key axes but lanes and FIFO depth, `fold`
    /// over its entries at every (lanes, FIFO) position, which are a
    /// block of the bounded walk.
    fn block(&self, space: &Space, layer: &'static str, fold: impl Fn(T, &T) -> T) -> Self
    where
        T: Copy,
    {
        let key: Vec<usize> = (0..LANES).filter(|&axis| self.strides[axis] != 0).collect();
        let mut offsets = vec![0];
        for axis in (LANES..AXES.len()).filter(|&axis| self.strides[axis] != 0) {
            let stride = self.strides[axis];
            offsets = offsets
                .iter()
                .flat_map(|&o| (0..space.dims[axis - 1]).map(move |i| o + i * stride))
                .collect();
        }
        Table::build_at(space, layer, &key, |idx, app| {
            let base = self.slot(idx);
            let first = *self.at(base, app);
            offsets[1..].iter().fold(first, |acc, &o| fold(acc, self.at(base + o, app)))
        })
    }

    /// The layer name and entry count.
    fn layer(&self) -> (&'static str, usize) {
        (self.layer, self.values.len())
    }

    /// The slot of architecture `idx` under app number 0: [`Table::at`]
    /// reaches app `a`'s entry from it.
    fn slot(&self, idx: &ArchIdx) -> usize {
        idx.iter()
            .zip(&self.strides[APP + 1..])
            .fold(0, |slot, (&i, &stride)| slot + i as usize * stride)
    }

    /// The entry under app number `app` of the architecture whose
    /// [`Table::slot`] is `slot`: `slot` plus `app` times the app
    /// stride.
    fn at(&self, slot: usize, app: usize) -> &T {
        &self.values[slot + app * self.strides[APP]]
    }
}

/// An architecture's axis positions and its [`Table::slot`] in each
/// table the walk reads, by the slot numbers [`GPU`] to [`SLOTS`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct Cursor {
    idx: ArchIdx,
    slots: [usize; SLOTS],
}

/// The blocks of the bounded walk and their two tables. A block's bound
/// reads the GPU baseline, the slope prefix and the NFP count at its
/// first architecture, which is exact because none of them reads lanes
/// or FIFO depth.
struct Blocks {
    /// Architectures per block: lanes times FIFO depths.
    len: usize,
    /// What a slot gains from a block's first architecture to its last.
    span: [usize; SLOTS],
    /// The least area and, separately, the least power of the `budget`
    /// entries of a block, per floorplan without (lanes, FIFO).
    budget_min: Table<(f64, f64)>,
    /// The largest `mac_engine` entry of a block, per (app, encoding,
    /// engines, MAC rows, MAC columns).
    mac_max: Table<f64>,
}

/// What [`FactorTables::fold`] shows a range of architectures to.
pub trait Fold {
    /// Whether the fold would turn away every architecture of a block
    /// whose optimistic bound is `bound`: the walk then skips the block.
    fn rejects(&mut self, bound: &Score) -> bool;

    /// Take one architecture, named by its flat number, with its score.
    fn offer(&mut self, flat: usize, score: &Score);
}

/// A closure takes every architecture: it rejects no block.
impl<F: FnMut(usize, &Score)> Fold for F {
    fn rejects(&mut self, _bound: &Score) -> bool {
        false
    }

    fn offer(&mut self, flat: usize, score: &Score) {
        self(flat, score)
    }
}

/// What the scorer computes for one architecture: its objectives and
/// each app's speedup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Score {
    /// The cross-app mean speedup and the cluster's area and power
    /// percentages: the architecture's position in objective space.
    pub objectives: Objectives,
    speedups: [f64; MAX_APPS],
    apps: usize,
}

impl Score {
    /// Each app's speedup, in app-axis order.
    pub fn speedups(&self) -> &[f64] {
        &self.speedups[..self.apps]
    }
}

/// One NFP's 7 nm area and power, `budget`, scaled to `nfp_units` NFPs
/// as percentages of the reference GPU's die area and TDP.
fn pct_of_gpu((area_mm2_7, watts_7): (f64, f64), nfp_units: u32) -> (f64, f64) {
    ng_hw::cluster_pct_of_gpu(area_mm2_7, watts_7, nfp_units, ngpc::REFERENCE_GPU)
}

/// Every model factor of a space, one dense table each.
pub struct FactorTables<'a> {
    pub(crate) space: Space<'a>,
    /// GPU baseline per (app, encoding, pixels).
    gpu: Table<GpuBaseline>,
    /// One NFP's 7 nm area and power per floorplan: the
    /// [`ng_hw::NfpBudget::combine`] of its three component entries.
    budget: Table<(f64, f64)>,
    /// Slope prefix per (app, encoding, clock, grid-SRAM size, banks,
    /// engines).
    prefix: Table<f64>,
    /// MAC/engine factor per (app, encoding, engines, MAC rows, MAC
    /// columns, lanes, FIFO depth).
    mac_engine: Table<f64>,
    /// The bounded walk's blocks; `None` when a block would hold one
    /// architecture, whose bound would be its own score, paid twice.
    blocks: Option<Blocks>,
    /// Per arch axis, what each slot gains when an odometer step stops
    /// there ([`Table::carry`]).
    carry: [[usize; SLOTS]; ARCH_AXES],
    /// Per table, by slot number, its stride of each arch axis.
    strides: [[usize; ARCH_AXES]; SLOTS],
    /// Every table's layer name and entry count, in build order.
    layers: Vec<(&'static str, usize)>,
}

impl<'a> FactorTables<'a> {
    /// Build every table of `space` on the calling thread, under a
    /// `tables` span with one child span per model layer.
    pub fn new(space: Space<'a>) -> Self {
        let _span = ng_obs::span("tables");
        let s = &space;
        let nfp = |p: &DesignPoint| p.emulator_input().nfp;
        let gpu = Table::build(s, "gpu", &[APP, ENCODING, PIXELS], |p| {
            GpuBaseline::of(&ng_gpu::kernel_breakdown(p.app, p.encoding, p.pixels))
        });
        // The budget's components: a grid-SRAM budget per (clock,
        // grid-SRAM size, banks, engines, lanes), an MLP-engine budget
        // per (clock, MAC rows, MAC columns) and an encoding-logic
        // budget per (clock, engines, lanes, FIFO depth).
        let grid_srams =
            Table::build(s, "grid_srams", &[CLOCK, SRAM_KB, BANKS, ENGINES, LANES], |p| {
                ng_hw::grid_srams_budget(&nfp(p).floorplan())
            });
        let mlp_engine = Table::build(s, "mlp_engine", &[CLOCK, MAC_ROWS, MAC_COLS], |p| {
            ng_hw::mlp_engine_budget(&nfp(p).floorplan())
        });
        let encoding_logic =
            Table::build(s, "encoding_logic", &[CLOCK, ENGINES, LANES, FIFO], |p| {
                ng_hw::encoding_logic_budget(&nfp(p).floorplan())
            });
        let budget = Table::build_at(s, "budget", &FLOORPLAN, |idx, _| {
            let nfp = ng_hw::NfpBudget::combine(
                *grid_srams.at(grid_srams.slot(idx), 0),
                *mlp_engine.at(mlp_engine.slot(idx), 0),
                *encoding_logic.at(encoding_logic.slot(idx), 0),
            );
            (nfp.area_mm2_7, nfp.watts_7)
        });
        let prefix = Table::build(
            s,
            "slope_prefix",
            &[APP, ENCODING, CLOCK, SRAM_KB, BANKS, ENGINES],
            |p| ngpc::SlopeFactors::prefix_factors(p.app, p.encoding, &nfp(p)).prefix(),
        );
        // The `mac_engine` factor's cycle counts: the paper NFP's per
        // (app, encoding), the encoding stage's per (encoding, engines,
        // lanes) and the MLP stage's per (app, encoding, MAC rows, MAC
        // columns), fused per entry at its FIFO depth.
        let paper_cycles = Table::build(s, "paper_cycles", &[APP, ENCODING], |p| {
            ngpc::paper_sample_cycles(p.app, p.encoding)
        });
        let encoding_cycles =
            Table::build(s, "encoding_cycles", &[ENCODING, ENGINES, LANES], |p| {
                ngpc::encoding_query_cycles(p.encoding, &nfp(p))
            });
        let mlp_cycles = Table::build(s, "mlp_cycles", &[APP, ENCODING, MAC_ROWS, MAC_COLS], |p| {
            ngpc::mlp_query_cycles(p.app, p.encoding, &nfp(p))
        });
        let fifo_depths = &s.spec.input_fifo_depth;
        let mac_engine = Table::build_at(
            s,
            "mac_engine",
            &[APP, ENCODING, ENGINES, MAC_ROWS, MAC_COLS, LANES, FIFO],
            |idx, app| {
                let cycles = ngpc::fused_query_cycles(
                    *encoding_cycles.at(encoding_cycles.slot(idx), 0),
                    *mlp_cycles.at(mlp_cycles.slot(idx), app),
                    fifo_depths[idx[FIFO - 1] as usize],
                );
                // The division `ngpc::mac_engine_factor` makes.
                paper_cycles.at(paper_cycles.slot(idx), app) / cycles
            },
        );
        let len: usize = s.dims[LANES - 1..].iter().product();
        let block_tables = (len > 1).then(|| {
            let min = |(a, p): (f64, f64), &(area, power): &(f64, f64)| (a.min(area), p.min(power));
            (budget.block(s, "budget_min", min), mac_engine.block(s, "mac_max", |m, &f| m.max(f)))
        });
        let mut layers = vec![
            gpu.layer(),
            grid_srams.layer(),
            mlp_engine.layer(),
            encoding_logic.layer(),
            budget.layer(),
            prefix.layer(),
            paper_cycles.layer(),
            encoding_cycles.layer(),
            mlp_cycles.layer(),
            mac_engine.layer(),
        ];
        // Without blocks, the block slots read tables of no axis: they
        // stay at 0.
        let none = ([0; AXES.len()], [0; ARCH_AXES]);
        let mut tables: [(&[usize; AXES.len()], &[usize; ARCH_AXES]); SLOTS] =
            [(&none.0, &none.1); SLOTS];
        tables[GPU] = (&gpu.strides, &gpu.carry);
        tables[BUDGET] = (&budget.strides, &budget.carry);
        tables[PREFIX] = (&prefix.strides, &prefix.carry);
        tables[MAC_ENGINE] = (&mac_engine.strides, &mac_engine.carry);
        if let Some((budget_min, mac_max)) = &block_tables {
            layers.extend([budget_min.layer(), mac_max.layer()]);
            tables[BUDGET_MIN] = (&budget_min.strides, &budget_min.carry);
            tables[MAC_MAX] = (&mac_max.strides, &mac_max.carry);
        }
        let strides: [[usize; ARCH_AXES]; SLOTS] =
            tables.map(|(strides, _)| strides[APP + 1..].try_into().expect("ARCH_AXES strides"));
        let carry = std::array::from_fn(|axis| tables.map(|(_, carry)| carry[axis]));
        let blocks = block_tables.map(|(budget_min, mac_max)| {
            let last = |strides: [usize; ARCH_AXES]| {
                (LANES..AXES.len()).map(|axis| strides[axis - 1] * (s.dims[axis - 1] - 1)).sum()
            };
            Blocks { len, span: strides.map(last), budget_min, mac_max }
        });
        FactorTables { space, gpu, budget, prefix, mac_engine, blocks, carry, strides, layers }
    }

    /// Each table's layer name and entry count (one entry per distinct
    /// tuple of the axes it reads), in build order: the scorer's four,
    /// the six they are built from, and the two block tables when the
    /// walk has blocks.
    pub fn layers(&self) -> Vec<(&'static str, usize)> {
        self.layers.clone()
    }

    /// Architecture `idx` with its slot in each table.
    fn cursor(&self, idx: &ArchIdx) -> Cursor {
        let slots = self.strides.map(|strides| {
            idx.iter().zip(&strides).fold(0, |slot, (&i, &stride)| slot + i as usize * stride)
        });
        Cursor { idx: *idx, slots }
    }

    /// Step `c` to the next architecture in [`Space`] order, moving each
    /// slot by its table's carry delta for the axis the step stops at.
    /// Returns `true` when it wraps from the last architecture to the
    /// first.
    fn advance(&self, c: &mut Cursor) -> bool {
        let Some(axis) = self.space.advance(&mut c.idx) else {
            *c = self.cursor(&c.idx);
            return true;
        };
        for (slot, carry) in c.slots.iter_mut().zip(&self.carry[axis]) {
            *slot = slot.wrapping_add(*carry);
        }
        false
    }

    /// Step `c` from the first architecture of a block past its last.
    fn skip(&self, blocks: &Blocks, c: &mut Cursor) {
        for (slot, span) in c.slots.iter_mut().zip(&blocks.span) {
            *slot += span;
        }
        for axis in LANES..AXES.len() {
            c.idx[axis - 1] = self.space.dims[axis - 1] as u32 - 1;
        }
        self.advance(c);
    }

    /// The NFP count of the architecture at `c`.
    fn nfp_units(&self, c: &Cursor) -> u32 {
        self.space.spec.nfp_units[c.idx[NFP_UNITS - 1] as usize]
    }

    /// The slope of app number `app` at `c` with MAC/engine factor
    /// `mac_engine`: the tabulated prefix times it, the product
    /// [`ngpc::SlopeFactors::slope`] computes, in its order.
    fn slope(&self, c: &Cursor, app: usize, mac_engine: f64) -> f64 {
        self.prefix.at(c.slots[PREFIX], app) * mac_engine
    }

    /// The scorer, over the budget entry `budget` and the MAC/engine
    /// factors `mac_engine`'s entries at `mac_slot`: the area and power
    /// percentages (once, since no app reads them), each app's speedup
    /// in app order and their cross-app mean. An architecture's score
    /// reads its own entries, a block's bound the block tables'. Forced
    /// inline, so that a caller's fold sees the speedups in registers.
    #[inline(always)]
    fn score_over(
        &self,
        c: &Cursor,
        budget: (f64, f64),
        mac_engine: &Table<f64>,
        mac_slot: usize,
    ) -> Score {
        let nfp_units = self.nfp_units(c);
        let (area_pct, power_pct) = pct_of_gpu(budget, nfp_units);
        let apps = self.space.spec.apps.len();
        let mut speedups = [0.0; MAX_APPS];
        for (app, speedup) in speedups[..apps].iter_mut().enumerate() {
            let slope = self.slope(c, app, *mac_engine.at(mac_slot, app));
            *speedup = self.gpu.at(c.slots[GPU], app).speedup(slope, nfp_units);
        }
        let speedup = cross_app_mean(speedups[..apps].iter().copied());
        Score { objectives: Objectives { speedup, area_pct, power_pct }, speedups, apps }
    }

    /// The score of the architecture at `c`.
    #[inline(always)]
    fn score(&self, c: &Cursor) -> Score {
        let budget = *self.budget.at(c.slots[BUDGET], 0);
        self.score_over(c, budget, &self.mac_engine, c.slots[MAC_ENGINE])
    }

    /// The optimistic bound of the block that starts at `c`: the scorer
    /// over the block's least area and power and its largest MAC/engine
    /// factors.
    #[inline(always)]
    fn bound(&self, blocks: &Blocks, c: &Cursor) -> Score {
        let budget = *blocks.budget_min.at(c.slots[BUDGET_MIN], 0);
        self.score_over(c, budget, &blocks.mac_max, c.slots[MAC_MAX])
    }

    /// Score the architectures `archs` (flat numbers, ascending) in
    /// order, showing each to `fold` with its flat number, and return
    /// the fold: the sweep's workers' bounded walk. It decodes
    /// `archs.start` once and then steps an odometer ([`Space`] order),
    /// moving each table slot by a carry delta. Where a block starts and
    /// ends in the range, the walk shows `fold` the block's bound first:
    /// a rejected block is skipped unscored, a passed one is scored
    /// architecture by architecture, and so is a block that a range
    /// boundary cuts. Forced inline, so that the fold's `offer` and the
    /// scorer share one loop body.
    #[inline(always)]
    pub fn fold<F: Fold>(&self, archs: Range<usize>, mut fold: F) -> F {
        let mut c = self.cursor(&self.space.decode(archs.start));
        let mut flat = archs.start;
        while flat < archs.end {
            // Score up to the end of the block at `flat`, or of the range.
            let mut stop = archs.end;
            if let Some(blocks) = &self.blocks {
                let end = flat - flat % blocks.len + blocks.len;
                let whole = flat.is_multiple_of(blocks.len) && end <= archs.end;
                if whole && fold.rejects(&self.bound(blocks, &c)) {
                    self.skip(blocks, &mut c);
                    flat = end;
                    continue;
                }
                stop = stop.min(end);
            }
            while flat < stop {
                fold.offer(flat, &self.score(&c));
                self.advance(&mut c);
                flat += 1;
            }
        }
        fold
    }

    /// Score architecture `idx` alone, from its axis positions: the
    /// searcher's probe, the same scorer as [`FactorTables::fold`].
    pub fn score_at(&self, idx: &ArchIdx) -> Score {
        self.score(&self.cursor(idx))
    }

    /// Architecture `idx` as a record, with the `objectives` the scorer
    /// gave it: what a frontier survivor is decoded into.
    pub(crate) fn arch_point(&self, idx: &ArchIdx, objectives: &Objectives) -> ArchPoint {
        ArchPoint::new(&self.space.at(idx, 0, 0), self.space.spec.apps.len(), objectives)
    }

    /// The design point with spec index `index`, evaluated: what a
    /// per-app frontier survivor is decoded into.
    pub(crate) fn point(&self, index: usize) -> EvaluatedPoint {
        let archs = self.space.arch_count();
        self.evaluate(&self.cursor(&self.space.decode(index % archs)), index / archs, index)
    }

    /// The point at `c` under app number `app`, stamped with `index`:
    /// its table entries, the slope and [`ngpc::compose`], which calls
    /// the speedup and reads the percentages that the scorer computes.
    fn evaluate(&self, c: &Cursor, app: usize, index: usize) -> EvaluatedPoint {
        let point = self.space.at(&c.idx, app, index);
        let (area_pct, power_pct) =
            pct_of_gpu(*self.budget.at(c.slots[BUDGET], 0), point.nfp_units);
        let gpu = self.gpu.at(c.slots[GPU], app);
        let slope = self.slope(c, app, *self.mac_engine.at(c.slots[MAC_ENGINE], app));
        let result = ngpc::compose(point.nfp_units, slope, gpu, area_pct, power_pct);
        EvaluatedPoint::from_result(point, &result)
    }

    /// Evaluate the points `start..start + out.len()` into `out`:
    /// decode `start` once, then walk the positions as an odometer.
    fn fill(&self, start: usize, out: &mut [EvaluatedPoint]) {
        let arch_count = self.space.arch_count();
        let mut c = self.cursor(&self.space.decode(start % arch_count));
        let mut app = start / arch_count;
        for (index, slot) in (start..).zip(out.iter_mut()) {
            *slot = self.evaluate(&c, app, index);
            if self.advance(&mut c) {
                app += 1;
            }
        }
    }

    /// Hand every point of the space to `write`, in spec order, one
    /// refilled block of at most [`BLOCK`] points at a time: what the
    /// emitters read instead of a point vector. Adds nothing to
    /// `eval.ticks`: re-evaluating for output is bookkeeping, and the
    /// sweep already counted every point.
    pub(crate) fn each_block(
        &self,
        mut write: impl FnMut(&[EvaluatedPoint]) -> io::Result<()>,
    ) -> io::Result<()> {
        let total = self.space.spec.point_count();
        let blank = EvaluatedPoint::pending(self.space.point(&[0; ARCH_AXES], 0));
        let mut block = vec![blank; BLOCK.min(total)];
        for start in (0..total).step_by(BLOCK) {
            let slots = &mut block[..BLOCK.min(total - start)];
            self.fill(start, slots);
            write(slots)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SweepSpec;

    #[test]
    fn floorplan_axes_are_the_trailing_arch_axes() {
        assert_eq!(
            FLOORPLAN.to_vec(),
            (AXES.len() - FLOORPLAN.len()..AXES.len()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn guided_lanes_tables_hold_one_entry_per_distinct_axis_tuple() {
        let spec = SweepSpec::guided_lanes();
        let t = FactorTables::new(Space::new(&spec));
        let lens: Vec<usize> = t.layers().iter().map(|&(_, entries)| entries).collect();
        // 12 GPU baselines, 81 grid-SRAM, 9 MLP-engine and 27
        // encoding-logic budgets, 2,187 floorplans, 324 slope prefixes,
        // 12 paper-NFP cycle counts, 27 encoding-stage and 108
        // MLP-stage cycle counts, 2,916 MAC/engine tuples, and the
        // blocks' 243 least budgets and 324 largest MAC/engine factors
        // over (lanes, FIFO).
        assert_eq!(lens, [12, 81, 9, 27, 2187, 324, 12, 27, 108, 2916, 243, 324]);
        assert!(lens.iter().all(|&n| n <= spec.point_count()));
    }

    /// Stepping a cursor by carry deltas lands every slot where decoding
    /// the next architecture puts it, across every carry and the wrap;
    /// so does skipping a block from its first architecture.
    #[test]
    fn carried_slots_equal_decoded_slots() {
        let spec = SweepSpec { nfp_units: vec![8, 64], ..SweepSpec::guided_lanes() };
        let t = FactorTables::new(Space::new(&spec));
        let archs = t.space.arch_count();
        let mut c = t.cursor(&[0; ARCH_AXES]);
        for flat in 1..=archs {
            t.advance(&mut c);
            assert_eq!(c, t.cursor(&t.space.decode(flat % archs)), "arch {flat}");
        }
        let blocks = t.blocks.as_ref().expect("guided-lanes has blocks");
        for start in (0..archs).step_by(blocks.len) {
            let mut c = t.cursor(&t.space.decode(start));
            t.skip(blocks, &mut c);
            let next = (start + blocks.len) % archs;
            assert_eq!(c, t.cursor(&t.space.decode(next)), "block at {start}");
        }
    }

    /// On every preset, each block's bound is at least as good as each
    /// member's score on every objective, per app and cross-app, so a
    /// fold that rejects the bound rejects every member. The per-app
    /// speedups and the percentages are attained by some member: the
    /// block tables hold the block's extremes, not looser ones.
    #[test]
    fn block_bounds_hold_every_member() {
        for name in SweepSpec::PRESETS {
            let spec = SweepSpec::preset(name).unwrap();
            let t = FactorTables::new(Space::new(&spec));
            let archs = t.space.arch_count();
            let Some(blocks) = &t.blocks else { continue };
            for start in (0..archs).step_by(blocks.len) {
                let bound = t.bound(blocks, &t.cursor(&t.space.decode(start)));
                let b = bound.objectives;
                let members: Vec<Score> =
                    (start..start + blocks.len).map(|f| t.score_at(&t.space.decode(f))).collect();
                for m in &members {
                    let o = m.objectives;
                    let at = format!("{name}: block at {start}");
                    assert!(b.speedup >= o.speedup, "{at}");
                    assert!(b.area_pct <= o.area_pct && b.power_pct <= o.power_pct, "{at}");
                    for (bound, member) in bound.speedups().iter().zip(m.speedups()) {
                        assert!(bound >= member, "{at}");
                    }
                }
                let min =
                    |f: fn(&Score) -> f64| members.iter().map(f).fold(f64::INFINITY, f64::min);
                assert_eq!(b.area_pct, min(|m| m.objectives.area_pct), "{name}");
                assert_eq!(b.power_pct, min(|m| m.objectives.power_pct), "{name}");
                for (app, bound) in bound.speedups().iter().enumerate() {
                    let best = members.iter().map(|m| m.speedups()[app]).fold(0.0, f64::max);
                    assert_eq!(*bound, best, "{name}: app {app}");
                }
            }
        }
    }
}
