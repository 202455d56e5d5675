//! Factorised evaluation: the one evaluator of the sweep and the guided
//! searcher.
//!
//! The emulator is a composition of separable factors (paper Fig. 11):
//! the GPU kernel breakdown reads (app, encoding, pixels), the per-NFP
//! area/power budget reads the floorplan, and each slope factor reads a
//! few more axes. The budget is the combine of three components, each
//! reading fewer axes than the floorplan, so each component has its own
//! table and a budget entry combines three component entries.
//! [`FactorTables`] evaluates each factor once per distinct tuple of the
//! axes it reads, into a dense table indexed by [`Space`] positions, so
//! a point costs a few table reads, the cluster scaling and
//! [`ngpc::compose`]. Every entry comes from the function
//! [`ngpc::emulate`] calls, and the slope is multiplied in
//! [`ngpc::SlopeFactors::slope`]'s order, so the results are
//! bit-identical to `emulate` by construction.
//!
//! A table's key is a subset of the space's axes, so no table is larger
//! than the point count. The sweep's workers and the guided searcher
//! share one per-architecture fold, [`FactorTables::arch`]. It computes
//! each table's slot for the architecture once and reaches app `a` at
//! the slot plus `a` times the table's app stride. It scales the
//! cluster's area/power once, since no app reads it, sums the apps'
//! speedups in app order and builds the [`ArchPoint`] directly, with no
//! per-app point record. The emitters refill the points in spec order,
//! one block at a time, instead of holding them.

use std::io;

use ng_gpu::KernelBreakdown;
use ng_hw::{ComponentBudget, NfpBudget};

use crate::spec::{ArchIdx, DesignPoint, Space, ARCH_AXES};
use crate::sweep::{ArchPoint, EvaluatedPoint};

// Axis numbers of a table key: the arch axes in `Space` order, then
// the app axis.
const ENCODING: usize = 0;
const PIXELS: usize = 1;
const CLOCK: usize = 3;
const SRAM_KB: usize = 4;
const BANKS: usize = 5;
const ENGINES: usize = 6;
const MAC_ROWS: usize = 7;
const MAC_COLS: usize = 8;
const LANES: usize = 9;
const FIFO: usize = 10;
const APP: usize = ARCH_AXES;

/// The floorplan axes: every NFP axis, which are the trailing arch
/// axes, so a point's floorplan sits at `arch % floorplan_count`.
const FLOORPLAN: [usize; 8] = [CLOCK, SRAM_KB, BANKS, ENGINES, MAC_ROWS, MAC_COLS, LANES, FIFO];

/// Points per block: a sweep worker adds to `eval.ticks` once per
/// block (one shared atomic add rather than one per point), and the
/// emitters refill and write one block at a time.
pub(crate) const BLOCK: usize = 4096;

/// One factor's values over the axes it reads, row-major in key order.
struct Table<T> {
    /// The model layer the table holds: its span name under `tables`.
    layer: &'static str,
    /// Stride of each axis (by axis number); 0 for the axes the factor
    /// does not read.
    strides: [usize; ARCH_AXES + 1],
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
            |axis: usize| if axis == APP { space.spec.apps.len() } else { space.dims[axis] };
        let mut strides = [0; ARCH_AXES + 1];
        let mut len = 1;
        for &axis in key.iter().rev() {
            strides[axis] = len;
            len *= radix(axis);
        }
        let mut pos = [0u32; ARCH_AXES + 1];
        let mut values = Vec::with_capacity(len);
        for _ in 0..len {
            let idx = pos[..ARCH_AXES].try_into().expect("ARCH_AXES positions");
            values.push(factor(idx, pos[APP] as usize));
            for &axis in key.iter().rev() {
                pos[axis] += 1;
                if (pos[axis] as usize) < radix(axis) {
                    break;
                }
                pos[axis] = 0;
            }
        }
        Table { layer, strides, values }
    }

    /// The layer name and entry count.
    fn layer(&self) -> (&'static str, usize) {
        (self.layer, self.values.len())
    }

    /// The slot of architecture `idx` under app number 0: [`Table::at`]
    /// reaches app `a`'s entry from it.
    fn slot(&self, idx: &ArchIdx) -> usize {
        idx.iter().zip(&self.strides).fold(0, |slot, (&i, &stride)| slot + i as usize * stride)
    }

    /// The entry under app number `app` of the architecture whose
    /// [`Table::slot`] is `slot`: `slot` plus `app` times the app
    /// stride.
    fn at(&self, slot: usize, app: usize) -> &T {
        &self.values[slot + app * self.strides[APP]]
    }
}

/// One architecture's [`Table::slot`] in each table.
struct Slots {
    gpu: usize,
    budget: usize,
    residual: usize,
    sram_capacity: usize,
    bank_conflict: usize,
    mac_engine: usize,
}

/// Every model factor of a space, one dense table each.
pub struct FactorTables<'a> {
    pub(crate) space: Space<'a>,
    /// GPU kernel breakdown per (app, encoding, pixels).
    gpu: Table<KernelBreakdown>,
    /// Grid-SRAM budget per (clock, grid-SRAM size, banks, engines,
    /// lanes).
    grid_srams: Table<ComponentBudget>,
    /// MLP-engine budget per (clock, MAC rows, MAC columns).
    mlp_engine: Table<ComponentBudget>,
    /// Encoding-logic budget per (clock, engines, lanes, FIFO depth).
    encoding_logic: Table<ComponentBudget>,
    /// Per-NFP area/power budget per floorplan: the combine of its
    /// three component entries.
    budget: Table<NfpBudget>,
    /// Calibrated residual per (app, encoding).
    residual: Table<f64>,
    /// SRAM-capacity factor per (encoding, grid-SRAM size, engines).
    sram_capacity: Table<f64>,
    /// Bank-conflict factor per (app, banks).
    bank_conflict: Table<f64>,
    /// MAC/engine factor per (app, encoding, engines, MAC rows, MAC
    /// columns, lanes, FIFO depth).
    mac_engine: Table<f64>,
}

impl<'a> FactorTables<'a> {
    /// Build every table of `space` on the calling thread, under a
    /// `tables` span with one child span per model layer.
    pub fn new(space: Space<'a>) -> Self {
        let _span = ng_obs::span("tables");
        let s = &space;
        let nfp = |p: &DesignPoint| p.emulator_input().nfp;
        let gpu = Table::build(s, "gpu", &[APP, ENCODING, PIXELS], |p| {
            ng_gpu::kernel_breakdown(p.app, p.encoding, p.pixels)
        });
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
            NfpBudget::combine(
                *grid_srams.at(grid_srams.slot(idx), 0),
                *mlp_engine.at(mlp_engine.slot(idx), 0),
                *encoding_logic.at(encoding_logic.slot(idx), 0),
            )
        });
        FactorTables {
            gpu,
            grid_srams,
            mlp_engine,
            encoding_logic,
            budget,
            residual: Table::build(s, "residual", &[APP, ENCODING], |p| {
                ngpc::calibrated_residual(p.app, p.encoding)
            }),
            sram_capacity: Table::build(s, "sram_capacity", &[ENCODING, SRAM_KB, ENGINES], |p| {
                ngpc::sram_capacity_factor(&nfp(p), p.encoding)
            }),
            bank_conflict: Table::build(s, "bank_conflict", &[APP, BANKS], |p| {
                ngpc::bank_conflict_factor(&nfp(p), p.app)
            }),
            mac_engine: Table::build(
                s,
                "mac_engine",
                &[APP, ENCODING, ENGINES, MAC_ROWS, MAC_COLS, LANES, FIFO],
                |p| ngpc::mac_engine_factor(p.app, p.encoding, &nfp(p)),
            ),
            space,
        }
    }

    /// Each table's layer name and entry count (one entry per distinct
    /// tuple of the axes it reads), in build order.
    pub fn layers(&self) -> [(&'static str, usize); 9] {
        [
            self.gpu.layer(),
            self.grid_srams.layer(),
            self.mlp_engine.layer(),
            self.encoding_logic.layer(),
            self.budget.layer(),
            self.residual.layer(),
            self.sram_capacity.layer(),
            self.bank_conflict.layer(),
            self.mac_engine.layer(),
        ]
    }

    /// Evaluate the points `start..start + out.len()` into `out`:
    /// decode `start` once, then walk the positions as an odometer.
    fn fill(&self, start: usize, out: &mut [EvaluatedPoint]) {
        let arch_count = self.space.arch_count();
        let mut idx = self.space.decode(start % arch_count);
        let mut app = start / arch_count;
        for (index, slot) in (start..).zip(out.iter_mut()) {
            *slot = self.evaluate(&idx, app, index);
            if self.space.advance(&mut idx) {
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

    /// Architecture `idx` folded over its app points: the one
    /// per-architecture fold, of the sweep's workers and the guided
    /// searcher. It computes each table's slot and the cluster's
    /// area/power (which no app reads) once, then each app's result in
    /// app order, which it shows to `visit` with its app number, and
    /// folds the speedups into the cross-app average. Forced
    /// inline: out of line, the sweep's loop ran ~20% slower.
    #[inline(always)]
    pub fn arch(
        &self,
        idx: &ArchIdx,
        mut visit: impl FnMut(usize, &ngpc::EmulationResult),
    ) -> ArchPoint {
        let arch = self.space.at(idx, 0, 0);
        let slots = self.slots(idx);
        let hw = self.area_power(&slots, &arch);
        let speedups = (0..self.space.spec.apps.len()).map(|app| {
            let result = self.compose(&slots, app, &arch, &hw);
            visit(app, &result);
            result.speedup
        });
        ArchPoint::from_speedups(&arch, speedups, hw.area_pct_of_gpu, hw.power_pct_of_gpu)
    }

    /// The point at `idx` under app number `app`, stamped with `index`:
    /// what the emitters' block refill evaluates, one point at a time.
    fn evaluate(&self, idx: &ArchIdx, app: usize, index: usize) -> EvaluatedPoint {
        let point = self.space.at(idx, app, index);
        let slots = self.slots(idx);
        let hw = self.area_power(&slots, &point);
        EvaluatedPoint::from_result(point, &self.compose(&slots, app, &point, &hw))
    }

    /// Architecture `idx`'s slot in each table.
    fn slots(&self, idx: &ArchIdx) -> Slots {
        Slots {
            gpu: self.gpu.slot(idx),
            budget: self.budget.slot(idx),
            residual: self.residual.slot(idx),
            sram_capacity: self.sram_capacity.slot(idx),
            bank_conflict: self.bank_conflict.slot(idx),
            mac_engine: self.mac_engine.slot(idx),
        }
    }

    /// The cluster area/power of architecture `arch`: its NFP budget
    /// scaled to its NFP count. The budget reads no app.
    fn area_power(&self, slots: &Slots, arch: &DesignPoint) -> ng_hw::AreaPowerReport {
        let budget = self.budget.at(slots.budget, 0);
        ng_hw::cluster_area_power(budget, arch.nfp_units, ngpc::REFERENCE_GPU)
    }

    /// App number `app` of architecture `arch`: its table entries,
    /// the slope in [`ngpc::SlopeFactors::slope`]'s order, and
    /// [`ngpc::compose`]. Not forced inline: inlined into
    /// [`FactorTables::arch`], the sweep's loop measured slower.
    fn compose(
        &self,
        slots: &Slots,
        app: usize,
        arch: &DesignPoint,
        hw: &ng_hw::AreaPowerReport,
    ) -> ngpc::EmulationResult {
        let slope = ngpc::SlopeFactors {
            residual: *self.residual.at(slots.residual, app),
            clock_ghz: arch.clock_ghz,
            sram_capacity: *self.sram_capacity.at(slots.sram_capacity, app),
            bank_conflict: *self.bank_conflict.at(slots.bank_conflict, app),
            mac_engine: *self.mac_engine.at(slots.mac_engine, app),
        }
        .slope();
        ngpc::compose(arch.nfp_units, slope, self.gpu.at(slots.gpu, app), hw)
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
            (ARCH_AXES - FLOORPLAN.len()..ARCH_AXES).collect::<Vec<_>>()
        );
    }

    #[test]
    fn guided_lanes_tables_hold_one_entry_per_distinct_axis_tuple() {
        let spec = SweepSpec::guided_lanes();
        let t = FactorTables::new(Space::new(&spec));
        let lens = t.layers().map(|(_, entries)| entries);
        // 12 GPU breakdowns, 81 grid-SRAM, 9 MLP-engine and 27
        // encoding-logic budgets, 2,187 floorplans, 12 residuals, 27
        // SRAM factors, 12 bank factors and 2,916 MAC/engine tuples.
        assert_eq!(lens, [12, 81, 9, 27, 2187, 12, 27, 12, 2916]);
        assert!(lens.iter().all(|&n| n <= spec.point_count()));
    }
}
