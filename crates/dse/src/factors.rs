//! Factorised evaluation: the one evaluator of the sweep and the guided
//! searcher.
//!
//! The emulator is a composition of separable factors (paper Fig. 11):
//! the GPU kernel breakdown reads (app, encoding, pixels), the per-NFP
//! area/power budget reads the floorplan, and each slope factor reads a
//! few more axes. [`FactorTables`] evaluates each factor once per
//! distinct tuple of the axes it reads, into a dense table indexed by
//! [`Space`] positions, so a point costs a few table reads, the cluster
//! scaling and [`ngpc::compose`]. Every entry comes from the function
//! [`ngpc::emulate`] calls, and the slope is multiplied in
//! [`ngpc::SlopeFactors::slope`]'s order, so the results are
//! bit-identical to `emulate` by construction.
//!
//! A table's key is a subset of the space's axes, so no table is larger
//! than the point count. The sweep's workers and the guided searcher
//! fold one architecture's app points at a time
//! ([`FactorTables::arch`]); the emitters refill the points in spec
//! order, one block at a time, instead of holding them.

use std::io;

use ng_gpu::KernelBreakdown;
use ng_hw::NfpBudget;

use crate::obs_counters;
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
    /// Stride of each axis (by axis number); 0 for the axes the factor
    /// does not read.
    strides: [usize; ARCH_AXES + 1],
    values: Vec<T>,
}

impl<T> Table<T> {
    /// Evaluate `factor` once per distinct tuple of the `key` axes. It
    /// sees the point at those positions with every other axis at
    /// position 0.
    fn build(space: &Space, key: &[usize], factor: impl Fn(&DesignPoint) -> T) -> Self {
        let radix =
            |axis: usize| if axis == APP { space.spec.apps.len() } else { space.dims[axis] };
        let mut strides = [0; ARCH_AXES + 1];
        let mut len = 1;
        for &axis in key.iter().rev() {
            strides[axis] = len;
            len *= radix(axis);
        }
        let values = (0..len)
            .map(|slot| {
                let mut pos = [0; ARCH_AXES + 1];
                for &axis in key {
                    pos[axis] = (slot / strides[axis] % radix(axis)) as u32;
                }
                let idx: ArchIdx = pos[..ARCH_AXES].try_into().expect("ARCH_AXES positions");
                factor(&space.point(&idx, pos[APP] as usize))
            })
            .collect();
        Table { strides, values }
    }

    /// The entry of the point at `idx` under app number `app`.
    fn get(&self, idx: &ArchIdx, app: usize) -> &T {
        let slot = idx
            .iter()
            .zip(&self.strides)
            .fold(app * self.strides[APP], |slot, (&i, &stride)| slot + i as usize * stride);
        &self.values[slot]
    }
}

/// Every model factor of a space, one dense table each.
pub struct FactorTables<'a> {
    pub(crate) space: Space<'a>,
    /// GPU kernel breakdown per (app, encoding, pixels).
    gpu: Table<KernelBreakdown>,
    /// Per-NFP area/power budget per floorplan.
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
    /// Build every table of `space` on the calling thread.
    pub fn new(space: Space<'a>) -> Self {
        let s = &space;
        let nfp = |p: &DesignPoint| p.emulator_input().nfp;
        FactorTables {
            gpu: Table::build(s, &[APP, ENCODING, PIXELS], |p| {
                ng_gpu::kernel_breakdown(p.app, p.encoding, p.pixels)
            }),
            budget: Table::build(s, &FLOORPLAN, |p| ng_hw::nfp_budget(&nfp(p).floorplan())),
            residual: Table::build(s, &[APP, ENCODING], |p| {
                ngpc::calibrated_residual(p.app, p.encoding)
            }),
            sram_capacity: Table::build(s, &[ENCODING, SRAM_KB, ENGINES], |p| {
                ngpc::sram_capacity_factor(&nfp(p), p.encoding)
            }),
            bank_conflict: Table::build(s, &[APP, BANKS], |p| {
                ngpc::bank_conflict_factor(&nfp(p), p.app)
            }),
            mac_engine: Table::build(
                s,
                &[APP, ENCODING, ENGINES, MAC_ROWS, MAC_COLS, LANES, FIFO],
                |p| ngpc::mac_engine_factor(p.app, p.encoding, &nfp(p)),
            ),
            space,
        }
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

    /// Architecture `idx` folded over its app points, evaluated in app
    /// order, as the sweep's workers fold theirs.
    /// Adds the app count to `eval.ticks`. A loop of its own rather
    /// than a `fold_arch` call, so that the searcher's hot path carries
    /// no visitor.
    pub fn arch(&self, idx: &ArchIdx) -> ArchPoint {
        let (apps, arch_count) = (self.space.spec.apps.len(), self.space.arch_count());
        let flat = self.space.flat(idx);
        obs_counters::eval_ticks().add(apps as u64);
        ArchPoint::from_app_points(
            (0..apps).map(|app| self.evaluate(idx, app, app * arch_count + flat)),
        )
    }

    /// Architecture `idx`, flat number `flat`, folded over its app
    /// points through [`ArchPoint::from_app_points`]. Each point is
    /// shown to `visit`, with its app number, as it is evaluated.
    pub(crate) fn fold_arch(
        &self,
        idx: &ArchIdx,
        flat: usize,
        mut visit: impl FnMut(usize, &EvaluatedPoint),
    ) -> ArchPoint {
        let arch_count = self.space.arch_count();
        ArchPoint::from_app_points((0..self.space.spec.apps.len()).map(|app| {
            let p = self.evaluate(idx, app, app * arch_count + flat);
            visit(app, &p);
            p
        }))
    }

    /// The point at `idx` under app number `app`, stamped with `index`:
    /// table reads, the cluster scaling and [`ngpc::compose`]. Forced
    /// inline: with two callers the compiler otherwise emits it out of
    /// line, a call per point in the sweep's loop.
    #[inline(always)]
    fn evaluate(&self, idx: &ArchIdx, app: usize, index: usize) -> EvaluatedPoint {
        let point = self.space.at(idx, app, index);
        let slope = ngpc::SlopeFactors {
            residual: *self.residual.get(idx, app),
            clock_ghz: point.clock_ghz,
            sram_capacity: *self.sram_capacity.get(idx, app),
            bank_conflict: *self.bank_conflict.get(idx, app),
            mac_engine: *self.mac_engine.get(idx, app),
        }
        .slope();
        let hw = ng_hw::cluster_area_power(
            self.budget.get(idx, app),
            point.nfp_units,
            ngpc::REFERENCE_GPU,
        );
        let result = ngpc::compose(point.nfp_units, slope, self.gpu.get(idx, app), &hw);
        EvaluatedPoint::from_result(point, &result)
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
        let lens = [
            t.gpu.values.len(),
            t.budget.values.len(),
            t.residual.values.len(),
            t.sram_capacity.values.len(),
            t.bank_conflict.values.len(),
            t.mac_engine.values.len(),
        ];
        // 12 GPU breakdowns, 2,187 floorplans, 12 residuals, 27 SRAM
        // factors, 12 bank factors and 2,916 MAC/engine tuples.
        assert_eq!(lens, [12, 2187, 12, 27, 12, 2916]);
        assert!(lens.iter().all(|&n| n <= spec.point_count()));
    }
}
