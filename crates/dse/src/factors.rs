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
//! rebuilt from the axis positions ([`FactorTables::walk`]); the
//! searcher scores one architecture at a time
//! ([`FactorTables::score_at`]). Their frontiers hold flat numbers, and
//! only the survivors are decoded into [`ArchPoint`]s and
//! [`EvaluatedPoint`]s. The emitters refill the points in spec order,
//! one block at a time, through [`ngpc::compose`] on the same slots.

use std::io;
use std::ops::Range;

use ng_neural::apps::AppKind;
use ngpc::GpuBaseline;

use crate::pareto::Objectives;
use crate::spec::{axis, ArchIdx, DesignPoint, Space, ARCH_AXES, AXES};
use crate::sweep::{cross_app_mean, ArchPoint, EvaluatedPoint};

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
/// table the scorer reads.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    idx: ArchIdx,
    gpu: usize,
    budget: usize,
    prefix: usize,
    mac_engine: usize,
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
    /// Every table's layer name and entry count, in build order.
    layers: [(&'static str, usize); 8],
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
        let paper_cycles = Table::build(s, "paper_cycles", &[APP, ENCODING], |p| {
            ngpc::paper_sample_cycles(p.app, p.encoding)
        });
        let mac_engine = Table::build_at(
            s,
            "mac_engine",
            &[APP, ENCODING, ENGINES, MAC_ROWS, MAC_COLS, LANES, FIFO],
            |idx, app| {
                let p = s.point(idx, app);
                let paper = *paper_cycles.at(paper_cycles.slot(idx), app);
                ngpc::mac_engine_factor_over(paper, p.app, p.encoding, &nfp(&p))
            },
        );
        let layers = [
            gpu.layer(),
            grid_srams.layer(),
            mlp_engine.layer(),
            encoding_logic.layer(),
            budget.layer(),
            prefix.layer(),
            paper_cycles.layer(),
            mac_engine.layer(),
        ];
        FactorTables { space, gpu, budget, prefix, mac_engine, layers }
    }

    /// Each table's layer name and entry count (one entry per distinct
    /// tuple of the axes it reads), in build order: the scorer's four
    /// and the four it is built from.
    pub fn layers(&self) -> [(&'static str, usize); 8] {
        self.layers
    }

    /// Architecture `idx` with its slot in each table.
    fn cursor(&self, idx: &ArchIdx) -> Cursor {
        Cursor {
            idx: *idx,
            gpu: self.gpu.slot(idx),
            budget: self.budget.slot(idx),
            prefix: self.prefix.slot(idx),
            mac_engine: self.mac_engine.slot(idx),
        }
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
        c.gpu = c.gpu.wrapping_add(self.gpu.carry[axis]);
        c.budget = c.budget.wrapping_add(self.budget.carry[axis]);
        c.prefix = c.prefix.wrapping_add(self.prefix.carry[axis]);
        c.mac_engine = c.mac_engine.wrapping_add(self.mac_engine.carry[axis]);
        false
    }

    /// The NFP count of the architecture at `c`.
    fn nfp_units(&self, c: &Cursor) -> u32 {
        self.space.spec.nfp_units[c.idx[NFP_UNITS - 1] as usize]
    }

    /// The cluster area and power of the architecture at `c`, as
    /// percentages of the reference GPU's: its NFP's budget scaled to
    /// its NFP count. The budget reads no app.
    fn area_power_pct(&self, c: &Cursor, nfp_units: u32) -> (f64, f64) {
        let &(area_mm2_7, watts_7) = self.budget.at(c.budget, 0);
        ng_hw::cluster_pct_of_gpu(area_mm2_7, watts_7, nfp_units, ngpc::REFERENCE_GPU)
    }

    /// The slope of app number `app` at `c`: the tabulated prefix times
    /// the MAC/engine factor, the product [`ngpc::SlopeFactors::slope`]
    /// computes, in its order.
    fn slope(&self, c: &Cursor, app: usize) -> f64 {
        self.prefix.at(c.prefix, app) * self.mac_engine.at(c.mac_engine, app)
    }

    /// The scorer: the architecture at `c`'s area and power percentages
    /// (once, since no app reads them), each app's speedup in app order
    /// and their cross-app mean. Forced inline, so that a caller's
    /// visitor sees the speedups in registers.
    #[inline(always)]
    fn score(&self, c: &Cursor) -> Score {
        let nfp_units = self.nfp_units(c);
        let (area_pct, power_pct) = self.area_power_pct(c, nfp_units);
        let apps = self.space.spec.apps.len();
        let mut speedups = [0.0; MAX_APPS];
        for (app, speedup) in speedups[..apps].iter_mut().enumerate() {
            *speedup = self.gpu.at(c.gpu, app).speedup(self.slope(c, app), nfp_units);
        }
        let speedup = cross_app_mean(speedups[..apps].iter().copied());
        Score { objectives: Objectives { speedup, area_pct, power_pct }, speedups, apps }
    }

    /// Score the architectures `archs` (flat numbers, ascending) in
    /// order, showing each to `visit` with its flat number: the sweep's
    /// workers' walk. It decodes `archs.start` once and then steps an
    /// odometer ([`Space`] order), moving each table slot by a carry
    /// delta.
    #[inline(always)]
    pub fn walk(&self, archs: Range<usize>, mut visit: impl FnMut(usize, &Score)) {
        let mut c = self.cursor(&self.space.decode(archs.start));
        for flat in archs {
            visit(flat, &self.score(&c));
            self.advance(&mut c);
        }
    }

    /// Score architecture `idx` alone, from its axis positions: the
    /// searcher's probe, the same scorer as [`FactorTables::walk`].
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
        let (area_pct, power_pct) = self.area_power_pct(c, point.nfp_units);
        let gpu = self.gpu.at(c.gpu, app);
        let result = ngpc::compose(point.nfp_units, self.slope(c, app), gpu, area_pct, power_pct);
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
        let lens = t.layers().map(|(_, entries)| entries);
        // 12 GPU baselines, 81 grid-SRAM, 9 MLP-engine and 27
        // encoding-logic budgets, 2,187 floorplans, 324 slope prefixes,
        // 12 paper-NFP cycle counts and 2,916 MAC/engine tuples.
        assert_eq!(lens, [12, 81, 9, 27, 2187, 324, 12, 2916]);
        assert!(lens.iter().all(|&n| n <= spec.point_count()));
    }

    /// Stepping a cursor by carry deltas lands every slot where decoding
    /// the next architecture puts it, across every carry and the wrap.
    #[test]
    fn carried_slots_equal_decoded_slots() {
        let spec = SweepSpec { nfp_units: vec![8, 64], ..SweepSpec::guided_lanes() };
        let t = FactorTables::new(Space::new(&spec));
        let mut c = t.cursor(&[0; ARCH_AXES]);
        for flat in 1..=t.space.arch_count() {
            t.advance(&mut c);
            let want = t.cursor(&t.space.decode(flat % t.space.arch_count()));
            let slots = |c: &Cursor| (c.idx, c.gpu, c.budget, c.prefix, c.mac_engine);
            assert_eq!(slots(&c), slots(&want), "arch {flat}");
        }
    }
}
