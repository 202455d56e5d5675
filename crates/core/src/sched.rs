//! The NGPC programming model (paper Fig. 10-b/c): the GPU command
//! buffer configures the NGPC, then streams batches; while the GPU
//! processes the rest-kernels of batch `i`, the NGPC computes
//! encoding + MLP for batch `i+1`.

use ng_neural::apps::{AppKind, EncodingKind};

use crate::error::{NgpcError, Result};

/// Commands recorded into the GPU command buffer for the NGPC (the
/// pseudocode of paper Fig. 10-c).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Command {
    /// Program the NGPC for an application/encoding pair.
    Configure {
        /// Application to run.
        app: AppKind,
        /// Encoding scheme.
        encoding: EncodingKind,
    },
    /// Upload grid tables and MLP weights to the NFP SRAMs.
    LoadTables {
        /// Bytes uploaded.
        bytes: u64,
    },
    /// Dispatch one batch of queries to the NGPC.
    DispatchBatch {
        /// Queries in the batch.
        queries: u64,
    },
    /// Wait for all outstanding NGPC work.
    Synchronize,
}

/// A recorded command stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommandBuffer {
    commands: Vec<Command>,
}

impl CommandBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        CommandBuffer::default()
    }

    /// Record a command, returning `&mut self` for chaining.
    pub fn record(&mut self, cmd: Command) -> &mut Self {
        self.commands.push(cmd);
        self
    }

    /// Recorded commands.
    pub fn commands(&self) -> &[Command] {
        &self.commands
    }

    /// Validate ordering rules: a `Configure` must precede the first
    /// `LoadTables`/`DispatchBatch`, tables must be loaded before the
    /// first dispatch, and the stream must end with `Synchronize`.
    ///
    /// # Errors
    ///
    /// Returns [`NgpcError::ProgrammingModel`] describing the violation.
    pub fn validate(&self) -> Result<()> {
        let mut configured = false;
        let mut loaded = false;
        for (i, cmd) in self.commands.iter().enumerate() {
            match cmd {
                Command::Configure { .. } => {
                    configured = true;
                    loaded = false;
                }
                Command::LoadTables { .. } => {
                    if !configured {
                        return Err(NgpcError::ProgrammingModel {
                            message: format!("LoadTables at {i} before Configure"),
                        });
                    }
                    loaded = true;
                }
                Command::DispatchBatch { queries } => {
                    if !configured || !loaded {
                        return Err(NgpcError::ProgrammingModel {
                            message: format!("DispatchBatch at {i} before Configure/LoadTables"),
                        });
                    }
                    if *queries == 0 {
                        return Err(NgpcError::ProgrammingModel {
                            message: format!("empty batch at {i}"),
                        });
                    }
                }
                Command::Synchronize => {}
            }
        }
        match self.commands.last() {
            Some(Command::Synchronize) => Ok(()),
            _ => Err(NgpcError::ProgrammingModel {
                message: "command stream must end with Synchronize".to_string(),
            }),
        }
    }

    /// Total dispatched queries.
    pub fn dispatched_queries(&self) -> u64 {
        self.commands
            .iter()
            .map(|c| match c {
                Command::DispatchBatch { queries } => *queries,
                _ => 0,
            })
            .sum()
    }
}

/// Record the canonical frame stream of Fig. 10-c: configure, load,
/// `n_batches` dispatches, synchronize.
pub fn frame_stream(
    app: AppKind,
    encoding: EncodingKind,
    table_bytes: u64,
    queries: u64,
    n_batches: u64,
) -> CommandBuffer {
    let mut buf = CommandBuffer::new();
    buf.record(Command::Configure { app, encoding });
    buf.record(Command::LoadTables { bytes: table_bytes });
    let per = queries.div_ceil(n_batches.max(1)).max(1);
    let mut left = queries;
    while left > 0 {
        let q = per.min(left);
        buf.record(Command::DispatchBatch { queries: q });
        left -= q;
    }
    buf.record(Command::Synchronize);
    buf
}

/// Two-stage pipeline timing of the batch overlap (Fig. 10-b): the NGPC
/// stage takes `ngpc_ms` per batch, the GPU rest-kernel stage `gpu_ms`
/// per batch.
///
/// Classic pipeline makespan: `ngpc + (n-1) * max(ngpc, gpu) + gpu`.
pub fn overlapped_makespan_ms(n_batches: u64, ngpc_ms: f64, gpu_ms: f64) -> f64 {
    if n_batches == 0 {
        return 0.0;
    }
    ngpc_ms + (n_batches - 1) as f64 * ngpc_ms.max(gpu_ms) + gpu_ms
}

/// Serial (non-overlapped) makespan for the same work.
pub fn serial_makespan_ms(n_batches: u64, ngpc_ms: f64, gpu_ms: f64) -> f64 {
    n_batches as f64 * (ngpc_ms + gpu_ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn apps() -> (AppKind, EncodingKind) {
        (AppKind::Nerf, EncodingKind::MultiResHashGrid)
    }

    #[test]
    fn frame_stream_validates() {
        let (app, enc) = apps();
        let buf = frame_stream(app, enc, 1 << 20, 1_000_000, 16);
        buf.validate().unwrap();
        assert_eq!(buf.dispatched_queries(), 1_000_000);
    }

    #[test]
    fn dispatch_before_configure_rejected() {
        let mut buf = CommandBuffer::new();
        buf.record(Command::DispatchBatch { queries: 10 });
        buf.record(Command::Synchronize);
        assert!(buf.validate().is_err());
    }

    #[test]
    fn dispatch_before_load_rejected() {
        let (app, enc) = apps();
        let mut buf = CommandBuffer::new();
        buf.record(Command::Configure { app, encoding: enc });
        buf.record(Command::DispatchBatch { queries: 10 });
        buf.record(Command::Synchronize);
        assert!(buf.validate().is_err());
    }

    #[test]
    fn missing_sync_rejected() {
        let (app, enc) = apps();
        let mut buf = CommandBuffer::new();
        buf.record(Command::Configure { app, encoding: enc });
        buf.record(Command::LoadTables { bytes: 100 });
        buf.record(Command::DispatchBatch { queries: 10 });
        assert!(buf.validate().is_err());
    }

    #[test]
    fn reconfigure_requires_reload() {
        let (app, enc) = apps();
        let mut buf = CommandBuffer::new();
        buf.record(Command::Configure { app, encoding: enc });
        buf.record(Command::LoadTables { bytes: 100 });
        buf.record(Command::DispatchBatch { queries: 10 });
        buf.record(Command::Configure { app, encoding: enc });
        buf.record(Command::DispatchBatch { queries: 10 });
        buf.record(Command::Synchronize);
        assert!(buf.validate().is_err(), "dispatch after reconfigure without reload");
    }

    #[test]
    fn empty_batches_rejected() {
        let (app, enc) = apps();
        let mut buf = CommandBuffer::new();
        buf.record(Command::Configure { app, encoding: enc });
        buf.record(Command::LoadTables { bytes: 100 });
        buf.record(Command::DispatchBatch { queries: 0 });
        buf.record(Command::Synchronize);
        assert!(buf.validate().is_err());
    }

    #[test]
    fn overlap_beats_serial() {
        let over = overlapped_makespan_ms(16, 1.0, 0.8);
        let serial = serial_makespan_ms(16, 1.0, 0.8);
        assert!(over < serial);
        // Steady state approaches max-stage rate.
        assert!((over - (1.0 + 15.0 * 1.0 + 0.8)).abs() < 1e-12);
    }

    #[test]
    fn single_batch_cannot_overlap() {
        assert_eq!(overlapped_makespan_ms(1, 2.0, 3.0), serial_makespan_ms(1, 2.0, 3.0));
    }

    #[test]
    fn makespan_matches_discrete_event_simulation() {
        // Property: the closed form equals an explicit two-stage pipeline
        // simulation for a spread of stage times.
        for &(a, b) in &[(1.0f64, 2.0f64), (2.0, 1.0), (0.5, 0.5), (3.7, 0.2)] {
            for n in [1u64, 2, 5, 33] {
                let mut stage1_free = 0.0f64;
                let mut stage2_free = 0.0f64;
                for _ in 0..n {
                    let s1 = stage1_free;
                    stage1_free = s1 + a;
                    let s2 = stage1_free.max(stage2_free);
                    stage2_free = s2 + b;
                }
                let sim = stage2_free;
                let closed = overlapped_makespan_ms(n, a, b);
                assert!((sim - closed).abs() < 1e-9, "a={a} b={b} n={n}: {sim} vs {closed}");
            }
        }
    }
}
