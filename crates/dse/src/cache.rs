//! A CSV point store, kept only for the benchmark's replay.
//!
//! No product path uses it: `dse` sweeps and searches evaluate every
//! point, because the model evaluates a point in about 0.7 µs, which is
//! cheaper than parsing it back from disk. `perfbench/replay` still
//! links [`EvalCache::new`], [`EvalCache::lookup`] and
//! [`EvalCache::append`] (with [`crate::model_fingerprint`],
//! `SweepStats::{cache_hits, cache_hit}`, `SweepOutcome::cache_path`
//! and `Searcher::without_cache`) to time its `store` workload. The
//! benchmark change that drops that workload deletes them all.
//!
//! * **Key** — [`EvalCache::point_key`]: FNV-1a over the point's axis
//!   tuple (everything except its spec-local `index`), the
//!   hand-maintained [`crate::MODEL_VERSION`] tag, *and* the computed
//!   [`crate::model_fingerprint`] — so model drift invalidates
//!   automatically even when the tag was forgotten.
//! * **Layout** — one directory per `(MODEL_VERSION, fingerprint)`
//!   generation, holding [`SHARD_COUNT`] append-friendly CSV shards; a
//!   point lives in the shard named by the top nibble of its key.
//! * **Concurrency** — every append holds the shard's exclusive
//!   advisory file lock ([`std::fs::File::lock`]) for its whole
//!   critical section (torn-tail probe, header creation, row write),
//!   so concurrent writers never interleave mid-line and a fresh shard
//!   gets exactly one header. Readers never lock. Filesystems without
//!   lock support degrade to unlocked appends.
//! * **Degradation** — a torn line, a duplicate or interior header, a
//!   corrupted shard, or a key mismatch (the stored axes no longer
//!   hash to the stored key) makes exactly the affected points misses;
//!   everything else keeps hitting.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::emit::{point_from_row, point_to_row};
use crate::spec::DesignPoint;
use crate::sweep::EvaluatedPoint;
use crate::{model_fingerprint, MODEL_VERSION};

/// Number of shard files per store generation (points are distributed
/// by the top nibble of their key).
pub const SHARD_COUNT: usize = 16;

/// A directory of point-level evaluation results.
#[derive(Debug, Clone)]
pub struct EvalCache {
    dir: PathBuf,
}

impl EvalCache {
    /// A store rooted at `dir` (created lazily on first append).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        EvalCache { dir: dir.into() }
    }

    /// The store key of one design point under the current models: a
    /// hash of its axis tuple (not its spec-local index), the
    /// [`MODEL_VERSION`] tag and the computed model fingerprint.
    pub fn point_key(point: &DesignPoint) -> u64 {
        ng_neural::math::fnv1a64(&format!(
            "{MODEL_VERSION};{:016x};app={};enc={};px={};nfp={};clk={:016x};kb={};banks={};\
             eng={};mrows={};mcols={};lanes={};fifo={}",
            model_fingerprint(),
            crate::spec::app_slug(point.app),
            crate::spec::encoding_slug(point.encoding),
            point.pixels,
            point.nfp_units,
            point.clock_ghz.to_bits(),
            point.grid_sram_kb,
            point.grid_sram_banks,
            point.encoding_engines,
            point.mac_rows,
            point.mac_cols,
            point.lanes_per_engine,
            point.input_fifo_depth,
        ))
    }

    /// The generation directory all shards of the current model version
    /// live in. A model change (tag bump or fingerprint drift) lands in
    /// a fresh directory and the stale one is never read again.
    fn store_dir(&self) -> PathBuf {
        self.dir.join(format!("{MODEL_VERSION}-{:016x}", model_fingerprint()))
    }

    /// The shard index a key lives in (its top nibble).
    fn shard_of(key: u64) -> usize {
        (key >> 60) as usize
    }

    fn shard_file(&self, shard: usize) -> PathBuf {
        self.store_dir().join(format!("shard-{shard:x}.csv"))
    }

    /// Parse one shard into key → point. Comment, header and
    /// torn/corrupt lines are skipped *wherever* they appear (those
    /// points simply stay misses), and a row whose stored axes no
    /// longer hash to its stated key is rejected (guards against
    /// truncation splices and rows copied across generations). A later
    /// duplicate of a key wins, matching append order.
    fn load_shard(&self, shard: usize) -> HashMap<u64, EvaluatedPoint> {
        let Ok(text) = fs::read_to_string(self.shard_file(shard)) else {
            return HashMap::new();
        };
        let mut rows = HashMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') || line.starts_with("key,") {
                continue;
            }
            let parsed = line
                .split_once(',')
                .and_then(|(key_hex, row)| {
                    Some((u64::from_str_radix(key_hex, 16).ok()?, point_from_row(row).ok()?))
                })
                .filter(|(stated, point)| Self::point_key(&point.point) == *stated);
            if let Some((key, point)) = parsed {
                rows.insert(key, point);
            }
        }
        rows
    }

    /// Look up every point of a sweep: `Some(result)` per hit (with the
    /// point's *current* spec index, not the index it was stored
    /// under), `None` per miss. Only the shards the keys land in are
    /// read, each at most once.
    pub fn lookup(&self, points: &[DesignPoint]) -> Vec<Option<EvaluatedPoint>> {
        let mut shards: Vec<Option<HashMap<u64, EvaluatedPoint>>> =
            (0..SHARD_COUNT).map(|_| None).collect();
        points
            .iter()
            .map(|point| {
                let key = Self::point_key(point);
                let shard = shards[Self::shard_of(key)]
                    .get_or_insert_with(|| self.load_shard(Self::shard_of(key)));
                let stored = shard.get(&key)?;
                // A 64-bit collision between different axis tuples is
                // astronomically unlikely but cheap to rule out.
                if (DesignPoint { index: point.index, ..stored.point }) != *point {
                    return None;
                }
                Some(EvaluatedPoint { point: *point, ..*stored })
            })
            .collect()
    }

    /// Append freshly evaluated points to their shards. One buffered
    /// `write_all` per shard under that shard's exclusive advisory
    /// lock; the first writer to lock a fresh shard writes its header.
    ///
    /// The lock makes concurrent appends — from threads or from other
    /// processes — safe: a single large `write_all` on an `O_APPEND`
    /// descriptor is *not* atomic (the kernel may split it, letting
    /// another writer's rows land mid-line), and without the lock two
    /// writers can both observe an empty shard and both write the
    /// header. Both races corrupt rows that then read back as misses.
    pub fn append(&self, points: &[EvaluatedPoint]) -> io::Result<()> {
        if points.is_empty() {
            return Ok(());
        }
        fs::create_dir_all(self.store_dir())?;
        let mut by_shard: Vec<String> = vec![String::new(); SHARD_COUNT];
        for p in points {
            let key = Self::point_key(&p.point);
            by_shard[Self::shard_of(key)].push_str(&format!("{key:016x},{}\n", point_to_row(p)));
        }
        for (shard, body) in by_shard.iter().enumerate() {
            if !body.is_empty() {
                Self::append_shard(&self.shard_file(shard), body)?;
            }
        }
        Ok(())
    }

    /// One locked shard append: the whole critical section (length
    /// probe, header creation, tail repair, row write) under the
    /// shard's exclusive advisory lock, released on close — including
    /// by the kernel if the writer crashes. A filesystem that does not
    /// support locking degrades to an unlocked append; any *other* lock
    /// failure is a real error.
    fn append_shard(path: &Path, body: &str) -> io::Result<()> {
        let mut file = fs::OpenOptions::new().read(true).create(true).append(true).open(path)?;
        if let Err(e) = file.lock() {
            if e.kind() != io::ErrorKind::Unsupported {
                return Err(e);
            }
        }
        // The length must be read *after* the lock: another writer
        // may have created the header between open and lock.
        let len = file.metadata()?.len();
        if len == 0 {
            file.write_all(
                format!(
                    "# ng-dse point cache | model {MODEL_VERSION} | fingerprint {:016x}\n",
                    model_fingerprint()
                )
                .as_bytes(),
            )?;
        } else {
            // A crashed writer can leave the shard without a final
            // newline; appending onto that torn tail would merge
            // (and so lose) the first fresh row. Terminate it first.
            let mut last = [0u8; 1];
            file.seek(SeekFrom::Start(len - 1))?;
            file.read_exact(&mut last)?;
            if last != [b'\n'] {
                file.write_all(b"\n")?;
            }
        }
        file.write_all(body.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SweepSpec;
    use crate::sweep::SweepEngine;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ng-dse-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn append_then_lookup_round_trips() {
        let dir = tmpdir("roundtrip");
        let spec = SweepSpec::quick();
        let outcome = SweepEngine::new().run(&spec).unwrap();
        let cache = EvalCache::new(&dir);
        let points = spec.points();
        assert!(cache.lookup(&points).iter().all(Option::is_none), "cold cache");
        cache.append(&outcome.points).unwrap();
        let loaded = cache.lookup(&points);
        assert_eq!(
            loaded.into_iter().collect::<Option<Vec<_>>>().unwrap(),
            outcome.points,
            "every point hits, bit-identical"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn point_key_tracks_axes_not_index() {
        let spec = SweepSpec::quick();
        let points = spec.points();
        let mut reindexed = points[3];
        reindexed.index = 77;
        assert_eq!(
            EvalCache::point_key(&points[3]),
            EvalCache::point_key(&reindexed),
            "index not part of identity"
        );
        let mut grown = points[3];
        grown.clock_ghz = 1.25;
        assert_ne!(EvalCache::point_key(&points[3]), EvalCache::point_key(&grown));
        // All quick-spec points have distinct keys.
        let mut keys: Vec<u64> = points.iter().map(EvalCache::point_key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), points.len());
    }

    #[test]
    fn point_key_covers_the_lane_and_fifo_axes() {
        // Stability: the key of the paper point must not move when only
        // the *spec* grows — and must move when either new axis value
        // changes, so v4 shards never serve a differently-laned point.
        let base = SweepSpec::quick().points()[0];
        assert_eq!(base.lanes_per_engine, 1);
        assert_eq!(base.input_fifo_depth, 64);
        let key = EvalCache::point_key(&base);
        let mut laned = base;
        laned.lanes_per_engine = 2;
        assert_ne!(key, EvalCache::point_key(&laned));
        let mut shallow = base;
        shallow.input_fifo_depth = 8;
        assert_ne!(key, EvalCache::point_key(&shallow));
        // Same axes, same key — regardless of which spec enumerated it.
        let mut re_spec = SweepSpec::quick();
        re_spec.lanes_per_engine = vec![1, 2];
        re_spec.input_fifo_depth = vec![8, 64];
        let twin = re_spec
            .points()
            .into_iter()
            .find(|p| DesignPoint { index: p.index, ..base } == *p)
            .expect("grown spec still contains the paper point");
        assert_eq!(key, EvalCache::point_key(&twin));
    }

    #[test]
    fn lookup_rewrites_the_spec_index() {
        // A point cached under one spec must come back with the index
        // the *current* spec assigns it.
        let dir = tmpdir("reindex");
        let spec = SweepSpec::quick();
        let outcome = SweepEngine::new().run(&spec).unwrap();
        let cache = EvalCache::new(&dir);
        cache.append(&outcome.points).unwrap();
        let mut moved = spec.points()[5];
        moved.index = 0;
        let hit = cache.lookup(&[moved])[0].expect("hit");
        assert_eq!(hit.point.index, 0);
        assert_eq!(hit.speedup, outcome.points[5].speedup);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_lines_are_misses_for_only_their_points() {
        let dir = tmpdir("torn");
        let spec = SweepSpec::quick();
        let outcome = SweepEngine::new().run(&spec).unwrap();
        let cache = EvalCache::new(&dir);
        cache.append(&outcome.points).unwrap();
        // Truncate one shard's last line mid-row (a crashed append).
        let victim_key = EvalCache::point_key(&outcome.points[0].point);
        let path = cache.shard_file(EvalCache::shard_of(victim_key));
        let text = fs::read_to_string(&path).unwrap();
        let keep_lines: Vec<&str> = text.lines().collect();
        let torn = format!(
            "{}\n{}",
            keep_lines[..keep_lines.len() - 1].join("\n"),
            &keep_lines[keep_lines.len() - 1][..20]
        );
        fs::write(&path, torn).unwrap();
        let loaded = cache.lookup(&spec.points());
        let misses = loaded.iter().filter(|p| p.is_none()).count();
        assert_eq!(misses, 1, "exactly the torn row misses");
        // Appending onto the torn tail must not merge rows: one
        // re-append heals the shard completely.
        let missing: Vec<_> = spec
            .points()
            .iter()
            .zip(&loaded)
            .filter(|(_, hit)| hit.is_none())
            .map(|(p, _)| outcome.points[p.index])
            .collect();
        cache.append(&missing).unwrap();
        assert!(cache.lookup(&spec.points()).iter().all(Option::is_some), "healed in one cycle");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interior_and_duplicate_headers_are_skipped_not_fatal() {
        // A pre-locking writer race could leave a second header mid
        // shard; the reader must keep every data row around it.
        let dir = tmpdir("dup-header");
        let spec = SweepSpec::quick();
        let outcome = SweepEngine::new().run(&spec).unwrap();
        let cache = EvalCache::new(&dir);
        cache.append(&outcome.points[..8]).unwrap();
        for key in outcome.points[..8].iter().map(|p| EvalCache::point_key(&p.point)) {
            let path = cache.shard_file(EvalCache::shard_of(key));
            let mut text = fs::read_to_string(&path).unwrap();
            text.push_str("# ng-dse point cache | duplicate interior header\n");
            fs::write(&path, text).unwrap();
        }
        cache.append(&outcome.points[8..]).unwrap();
        assert!(
            cache.lookup(&spec.points()).iter().all(Option::is_some),
            "rows on both sides of an interior header must survive"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_thread_appends_lose_no_rows() {
        // Many writers, one store: every appended row must read back
        // intact (the locked-append contract, exercised in-process).
        let dir = tmpdir("concurrent");
        let spec = SweepSpec::mac_arrays();
        let outcome = SweepEngine::new().run(&spec).unwrap();
        let writers = 8;
        std::thread::scope(|scope| {
            for w in 0..writers {
                let slice: Vec<EvaluatedPoint> = outcome
                    .points
                    .iter()
                    .filter(|p| p.point.index % writers == w)
                    .copied()
                    .collect();
                let cache = EvalCache::new(&dir);
                scope.spawn(move || {
                    // One-row appends maximise interleaving pressure.
                    for p in &slice {
                        cache.append(std::slice::from_ref(p)).unwrap();
                    }
                });
            }
        });
        let cache = EvalCache::new(&dir);
        let loaded = cache.lookup(&spec.points());
        assert_eq!(
            loaded.into_iter().collect::<Option<Vec<_>>>().expect("no torn or lost rows"),
            outcome.points,
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
