//! Persisting [`PerfTable`] sweeps: a versioned on-disk format and a
//! fingerprint-keyed [`TableStore`] cache.
//!
//! Building a performance table — simulating every coschedule of a suite on
//! a machine — dominates the cost of every experiment, yet the result is a
//! pure function of the machine configuration and the benchmark suite.
//! [`PerfTable::save`] / [`PerfTable::load`] give the table a bitwise-stable
//! serialisation, and [`TableStore`] keys saved tables by a fingerprint of
//! `(MachineConfig, suite)` so repeated studies skip re-simulation.
//!
//! # File format (`SPT1`)
//!
//! Little-endian throughout; `f64` values are stored as their IEEE-754 bit
//! patterns (`f64::to_bits`), so a load reproduces the build *bitwise*.
//! Tables never contain NaN or infinite IPCs; load rejects them.
//!
//! ```text
//! magic        8  bytes  b"SYMBPERF"
//! version      u32       currently 1
//! contexts     u32       hardware contexts the table was built for
//! benchmarks   u32       number of suite entries, then per benchmark:
//!   name_len   u32
//!   name       name_len bytes of UTF-8
//!   solo_ipc   u64       f64 bits of the solo reference IPC
//! combos       u64       number of recorded coschedules, then per combo
//!                        (sorted ascending by index vector):
//!   combo_len  u32       multiset size (1..=contexts)
//!   indices    combo_len * u32   sorted benchmark indices
//!   slot_ipcs  combo_len * u64   f64 bits of per-slot IPCs
//! checksum     u64       FNV-1a 64 over every preceding byte
//! ```
//!
//! Combos are written in sorted order (the [`PerfTable::recorded_combos`]
//! order), so a table's bytes depend only on its contents, never on where
//! its rows sit in memory.

use std::path::{Path, PathBuf};

use simproc::{BenchmarkProfile, CacheGeometry, Machine, MachineConfig, Topology};

use crate::table::{PerfTable, TableError};

const MAGIC: &[u8; 8] = b"SYMBPERF";
const VERSION: u32 = 1;

/// FNV-1a 64-bit running hash — stable across platforms and releases
/// (unlike `std::hash`), used for the file checksum, the store key, the
/// table content fingerprint and the `dist` frame checksum.
#[derive(Clone, Copy)]
pub struct Fnv64(u64);

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub(crate) fn new() -> Self {
        Fnv64(Self::OFFSET)
    }

    /// FNV-1a 64 over `bytes` in one call.
    pub fn digest(bytes: &[u8]) -> u64 {
        let mut fnv = Fnv64::new();
        fnv.write(bytes);
        fnv.finish()
    }

    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

impl PerfTable {
    /// FNV-1a 64 fingerprint of this table's canonical serialisation
    /// ([`PerfTable::to_bytes`]) — a pure function of the table *contents*,
    /// independent of how the table was obtained (simulated, synthetic,
    /// loaded, or received over a wire).
    ///
    /// Two tables share a content fingerprint exactly when their canonical
    /// byte encodings are identical, which is what distributed sweeps key
    /// their table-shipping deduplication on: a coordinator sends the
    /// fingerprint, and workers whose [`TableStore`] already holds it skip
    /// the transfer.
    pub fn content_fingerprint(&self) -> u64 {
        Fnv64::digest(&self.to_bytes())
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A bounds-checked reader over the loaded file; every take surfaces
/// truncation as [`TableError::Format`] instead of panicking.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], TableError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| {
                TableError::Format(format!(
                    "file truncated reading {what} at offset {}",
                    self.pos
                ))
            })?;
        let piece = &self.buf[self.pos..end];
        self.pos = end;
        Ok(piece)
    }

    fn take_u32(&mut self, what: &str) -> Result<u32, TableError> {
        Ok(u32::from_le_bytes(
            self.take(4, what)?.try_into().expect("4 bytes"),
        ))
    }

    fn take_u64(&mut self, what: &str) -> Result<u64, TableError> {
        Ok(u64::from_le_bytes(
            self.take(8, what)?.try_into().expect("8 bytes"),
        ))
    }

    fn take_f64(&mut self, what: &str) -> Result<f64, TableError> {
        let v = f64::from_bits(self.take_u64(what)?);
        if !v.is_finite() {
            return Err(TableError::Format(format!("{what} is not finite ({v})")));
        }
        Ok(v)
    }
}

impl PerfTable {
    /// Serialises the table to the documented `SPT1` byte format.
    ///
    /// The output is deterministic: equal tables always encode to the same
    /// bytes, however they were built.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        put_u32(&mut out, VERSION);
        put_u32(&mut out, self.contexts as u32);
        put_u32(&mut out, self.names.len() as u32);
        for (name, &solo) in self.names.iter().zip(&self.solo_ipc) {
            put_u32(&mut out, name.len() as u32);
            out.extend_from_slice(name.as_bytes());
            put_u64(&mut out, solo.to_bits());
        }
        put_u64(&mut out, self.len() as u64);
        self.for_each_sorted(|combo, ipcs| {
            put_u32(&mut out, combo.len() as u32);
            for &idx in combo {
                put_u32(&mut out, idx as u32);
            }
            for &ipc in ipcs {
                put_u64(&mut out, ipc.to_bits());
            }
        });
        let checksum = Fnv64::digest(&out);
        put_u64(&mut out, checksum);
        out
    }

    /// Parses a table from bytes produced by [`PerfTable::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`TableError::Format`] on a bad magic, unsupported version, checksum
    /// mismatch, truncation, trailing garbage, or invalid contents
    /// (out-of-range indices, unsorted combos, non-finite IPCs).
    pub fn from_bytes(buf: &[u8]) -> Result<Self, TableError> {
        if buf.len() < MAGIC.len() + 4 + 8 {
            return Err(TableError::Format(format!(
                "file too short ({} bytes)",
                buf.len()
            )));
        }
        if &buf[..MAGIC.len()] != MAGIC {
            return Err(TableError::Format(
                "bad magic (not a PerfTable file)".into(),
            ));
        }
        let (payload, tail) = buf.split_at(buf.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
        if Fnv64::digest(payload) != stored {
            return Err(TableError::Format(
                "checksum mismatch (file corrupted)".into(),
            ));
        }
        let mut cur = Cursor {
            buf: payload,
            pos: MAGIC.len(),
        };
        let version = cur.take_u32("version")?;
        if version != VERSION {
            return Err(TableError::Format(format!(
                "unsupported version {version} (expected {VERSION})"
            )));
        }
        let contexts = cur.take_u32("contexts")? as usize;
        if contexts == 0 {
            return Err(TableError::Format("zero contexts".into()));
        }
        let n_bench = cur.take_u32("benchmark count")? as usize;
        if n_bench == 0 {
            return Err(TableError::Format("empty benchmark suite".into()));
        }
        let mut names = Vec::with_capacity(n_bench);
        let mut solo_ipc = Vec::with_capacity(n_bench);
        for b in 0..n_bench {
            let len = cur.take_u32("name length")? as usize;
            let raw = cur.take(len, "benchmark name")?;
            let name = std::str::from_utf8(raw)
                .map_err(|_| TableError::Format(format!("benchmark {b} name is not UTF-8")))?;
            names.push(name.to_owned());
            let solo = cur.take_f64("solo IPC")?;
            if solo <= 0.0 {
                return Err(TableError::Format(format!(
                    "benchmark {b} solo IPC {solo} must be positive"
                )));
            }
            solo_ipc.push(solo);
        }
        let n_combos = cur.take_u64("combo count")? as usize;
        PerfTable::assemble(names, contexts, |rows| {
            let mut combo = Vec::with_capacity(contexts);
            let mut ipcs = Vec::with_capacity(contexts);
            for c in 0..n_combos {
                let len = cur.take_u32("combo length")? as usize;
                if len == 0 || len > contexts {
                    return Err(TableError::Format(format!(
                        "combo {c} has size {len} (contexts {contexts})"
                    )));
                }
                combo.clear();
                for _ in 0..len {
                    let idx = cur.take_u32("combo index")? as usize;
                    if idx >= n_bench {
                        return Err(TableError::Format(format!(
                            "combo {c} references benchmark {idx} of {n_bench}"
                        )));
                    }
                    combo.push(idx);
                }
                if !combo.windows(2).all(|w| w[0] <= w[1]) {
                    return Err(TableError::Format(format!("combo {c} is not sorted")));
                }
                ipcs.clear();
                for _ in 0..len {
                    ipcs.push(cur.take_f64("slot IPC")?);
                }
                let global = rows
                    .global_rank(&combo)
                    .expect("a sorted in-range combo of size 1..=contexts has a rank");
                if !rows.place(global, &ipcs) {
                    return Err(TableError::Format(format!("combo {c} is a duplicate")));
                }
            }
            if cur.pos != payload.len() {
                return Err(TableError::Format(format!(
                    "{} trailing bytes after the combo list",
                    payload.len() - cur.pos
                )));
            }
            // The solo reference column must agree with the size-1 combos.
            for (b, &solo) in solo_ipc.iter().enumerate() {
                match rows.get(&[b]) {
                    Some(row) if row[0].to_bits() == solo.to_bits() => {}
                    Some(row) => {
                        return Err(TableError::Format(format!(
                            "benchmark {b}: solo IPC {solo} disagrees with its size-1 combo {}",
                            row[0]
                        )))
                    }
                    None => {
                        return Err(TableError::Format(format!(
                            "benchmark {b} has no size-1 (solo) combo"
                        )))
                    }
                }
            }
            Ok(())
        })
    }

    /// Writes the table to `path` in the documented format.
    ///
    /// # Errors
    ///
    /// [`TableError::Io`] on filesystem failures.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), TableError> {
        let path = path.as_ref();
        std::fs::write(path, self.to_bytes())
            .map_err(|e| TableError::Io(format!("{}: {e}", path.display())))
    }

    /// Reads a table previously written by [`PerfTable::save`]. The loaded
    /// table is bitwise identical to the one saved.
    ///
    /// # Errors
    ///
    /// [`TableError::Io`] on filesystem failures, [`TableError::Format`] on
    /// corrupted or malformed contents.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, TableError> {
        let path = path.as_ref();
        let buf =
            std::fs::read(path).map_err(|e| TableError::Io(format!("{}: {e}", path.display())))?;
        Self::from_bytes(&buf)
    }
}

fn hash_geometry(fnv: &mut Fnv64, g: &CacheGeometry) {
    fnv.write_u64(g.size_bytes);
    fnv.write_u64(g.ways as u64);
    fnv.write_u64(g.line_bytes as u64);
    fnv.write_u64(g.latency);
}

/// Stable fingerprint of everything a [`PerfTable::build`] depends on: the
/// complete machine configuration (topology, core, caches, memory, windows)
/// and every profile parameter of the suite, plus the file-format version.
pub fn table_fingerprint(config: &MachineConfig, suite: &[BenchmarkProfile]) -> u64 {
    let mut fnv = Fnv64::new();
    fnv.write_u64(VERSION as u64);
    match config.topology {
        Topology::SmtCore { threads } => {
            fnv.write_u64(1);
            fnv.write_u64(threads as u64);
        }
        Topology::Multicore { cores } => {
            fnv.write_u64(2);
            fnv.write_u64(cores as u64);
        }
    }
    let core = &config.core;
    fnv.write_u64(core.dispatch_width as u64);
    fnv.write_u64(core.commit_width as u64);
    fnv.write_u64(core.rob_size as u64);
    fnv.write_u64(core.fetch_policy as u64);
    fnv.write_u64(core.rob_partitioning as u64);
    fnv.write_u64(core.branch_redirect_penalty);
    fnv.write_u64(core.mshrs_per_thread as u64);
    fnv.write_u64(core.dynamic_reservation as u64);
    fnv.write_u64(core.long_op_latency);
    hash_geometry(&mut fnv, &config.l1d);
    hash_geometry(&mut fnv, &config.l2);
    hash_geometry(&mut fnv, &config.l3);
    fnv.write_u64(config.mem.latency);
    fnv.write_u64(config.mem.cycles_per_transfer);
    fnv.write_u64(config.warmup_cycles);
    fnv.write_u64(config.measure_cycles);
    fnv.write_u64(suite.len() as u64);
    for p in suite {
        fnv.write_str(&p.name);
        fnv.write_f64(p.load_frac);
        fnv.write_f64(p.store_frac);
        fnv.write_f64(p.branch_frac);
        fnv.write_f64(p.long_op_frac);
        fnv.write_f64(p.mispredict_rate);
        fnv.write_f64(p.dep_frac);
        fnv.write_u64(p.stack_lines);
        fnv.write_f64(p.stack_frac);
        fnv.write_u64(p.hot_lines);
        fnv.write_u64(p.footprint_lines);
        fnv.write_f64(p.hot_frac);
        fnv.write_f64(p.streaming_frac);
        fnv.write_f64(p.frontend_stall_rate);
        fnv.write_u64(p.seed);
    }
    fnv.finish()
}

/// What a [`TableStore::get_or_build`] call did.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreOutcome {
    /// The requested table.
    pub table: PerfTable,
    /// `true` if the table was loaded from the cache (no simulation ran);
    /// `false` if it was built and saved.
    pub cache_hit: bool,
}

/// A directory of cached [`PerfTable`]s keyed by
/// [`table_fingerprint`]`(MachineConfig, suite)`.
///
/// [`TableStore::get_or_build`] loads the table if a valid cache file
/// exists, otherwise simulates it with [`PerfTable::build`] and saves the
/// result for the next run. Stale or corrupted cache files are rebuilt and
/// overwritten, never trusted.
///
/// # Examples
///
/// ```no_run
/// use simproc::MachineConfig;
/// use workloads::{spec2006, TableStore};
///
/// # fn main() -> Result<(), workloads::TableError> {
/// let store = TableStore::new(".table-cache");
/// let suite = spec2006();
/// let cold = store.get_or_build(&MachineConfig::smt4(), &suite, 8)?;
/// assert!(!cold.cache_hit); // simulated and saved
/// let warm = store.get_or_build(&MachineConfig::smt4(), &suite, 8)?;
/// assert!(warm.cache_hit); // loaded, no simulation
/// assert_eq!(cold.table, warm.table);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TableStore {
    dir: PathBuf,
}

impl TableStore {
    /// Creates a store rooted at `dir`. The directory is created lazily on
    /// the first save.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        TableStore { dir: dir.into() }
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The cache file path for a machine + suite pair.
    pub fn path_for(&self, config: &MachineConfig, suite: &[BenchmarkProfile]) -> PathBuf {
        self.dir.join(format!(
            "perftable-{:016x}.spt",
            table_fingerprint(config, suite)
        ))
    }

    /// Returns the cached table for `(config, suite)`, or builds and caches
    /// it. The loaded table is bitwise identical to the one a fresh build
    /// would have produced on the machine that populated the cache.
    ///
    /// Cache files that fail to load or that disagree with the request
    /// (names or context count — a fingerprint collision) are rebuilt.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors from the build and [`TableError::Io`]
    /// from the save; a corrupt cache file alone never fails the call.
    pub fn get_or_build(
        &self,
        config: &MachineConfig,
        suite: &[BenchmarkProfile],
        threads: usize,
    ) -> Result<StoreOutcome, TableError> {
        let path = self.path_for(config, suite);
        if let Ok(table) = PerfTable::load(&path) {
            let consistent = table.contexts() == config.contexts()
                && table.names().len() == suite.len()
                && table.names().iter().zip(suite).all(|(n, p)| *n == p.name);
            if consistent {
                return Ok(StoreOutcome {
                    table,
                    cache_hit: true,
                });
            }
        }
        let machine = Machine::new(config.clone())?;
        let table = PerfTable::build(&machine, suite, threads)?;
        self.write_atomic(&path, &table.to_bytes())?;
        Ok(StoreOutcome {
            table,
            cache_hit: false,
        })
    }

    /// Writes `bytes` to `path` atomically: the bytes land in a
    /// writer-unique temp file in the store directory and are renamed into
    /// place, so a concurrent reader (another worker process loading the
    /// same fingerprint) can never observe a torn or partial table. Racing
    /// writers are last-one-wins safe — every rename installs a complete
    /// file.
    ///
    /// # Errors
    ///
    /// [`TableError::Io`] on filesystem failures; a failed write removes
    /// its temp file best-effort.
    pub fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<(), TableError> {
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| TableError::Io(format!("{}: {e}", self.dir.display())))?;
        // The tmp name must be unique per writer (pid alone would let two
        // threads of one process interleave writes into one tmp file).
        static WRITER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let tmp = path.with_extension(format!(
            "tmp.{}.{}",
            std::process::id(),
            WRITER.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        if let Err(e) = std::fs::write(&tmp, bytes) {
            let _ = std::fs::remove_file(&tmp);
            return Err(TableError::Io(format!("{}: {e}", tmp.display())));
        }
        std::fs::rename(&tmp, path).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            TableError::Io(format!("{}: {e}", path.display()))
        })
    }

    /// The cache file path for a table known only by its
    /// [`PerfTable::content_fingerprint`] (a table received over a wire,
    /// say). Content-keyed entries use a distinct `perftable-c...` prefix so
    /// they can never collide with the config-keyed [`TableStore::path_for`]
    /// namespace.
    pub fn path_for_content(&self, fingerprint: u64) -> PathBuf {
        self.dir.join(format!("perftable-c{fingerprint:016x}.spt"))
    }

    /// Loads the cached table with this content fingerprint, if a valid one
    /// exists. The loaded table's own fingerprint is re-verified, so a
    /// corrupt, stale or mislabelled cache file reads as a miss — never as
    /// the wrong table.
    pub fn load_content(&self, fingerprint: u64) -> Option<PerfTable> {
        let table = PerfTable::load(self.path_for_content(fingerprint)).ok()?;
        (table.content_fingerprint() == fingerprint).then_some(table)
    }

    /// Saves a table under its content fingerprint (atomically, via
    /// [`TableStore::write_atomic`]) and returns the fingerprint.
    ///
    /// # Errors
    ///
    /// [`TableError::Io`] on filesystem failures.
    pub fn save_content(&self, table: &PerfTable) -> Result<u64, TableError> {
        let bytes = table.to_bytes();
        let fingerprint = Fnv64::digest(&bytes);
        self.write_atomic(&self.path_for_content(fingerprint), &bytes)?;
        Ok(fingerprint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::spec2006;

    fn tiny_suite() -> Vec<BenchmarkProfile> {
        spec2006().into_iter().take(3).collect()
    }

    fn tiny_config() -> MachineConfig {
        MachineConfig::smt4().with_windows(1_000, 3_000)
    }

    fn tiny_table() -> PerfTable {
        let machine = Machine::new(tiny_config()).unwrap();
        PerfTable::build(&machine, &tiny_suite(), 4).unwrap()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "symb-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn save_load_round_trip_is_bitwise_identical() {
        let table = tiny_table();
        let dir = temp_dir("roundtrip");
        let path = dir.join("t.spt");
        table.save(&path).unwrap();
        let loaded = PerfTable::load(&path).unwrap();
        // PartialEq on f64 is bit-for-bit here: no NaNs can occur (load
        // rejects non-finite values), so == means identical bit patterns.
        assert_eq!(table, loaded);
        assert_eq!(
            table.to_bytes(),
            loaded.to_bytes(),
            "rows and solos, bitwise"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn encoding_is_deterministic() {
        let table = tiny_table();
        assert_eq!(table.to_bytes(), table.clone().to_bytes());
    }

    #[test]
    fn short_file_and_corruption_rejected() {
        let table = tiny_table();
        let bytes = table.to_bytes();

        // Truncations at every structural boundary fail cleanly.
        for cut in [0, 4, MAGIC.len() + 2, bytes.len() / 2, bytes.len() - 1] {
            let err = PerfTable::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, TableError::Format(_)),
                "cut at {cut}: {err:?}"
            );
        }

        // A flipped payload byte trips the checksum.
        let mut corrupt = bytes.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x40;
        let err = PerfTable::from_bytes(&corrupt).unwrap_err();
        assert!(
            matches!(err, TableError::Format(ref m) if m.contains("checksum")),
            "{err:?}"
        );

        // Wrong magic is reported as such.
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        let err = PerfTable::from_bytes(&wrong).unwrap_err();
        assert!(
            matches!(err, TableError::Format(ref m) if m.contains("magic")),
            "{err:?}"
        );

        // Loading a missing path is an I/O error.
        assert!(matches!(
            PerfTable::load("/nonexistent/nope.spt"),
            Err(TableError::Io(_))
        ));
    }

    #[test]
    fn nan_ipc_rejected_on_load() {
        let table = tiny_table();
        let mut bytes = table.to_bytes();
        // Overwrite the last slot-IPC word (just before the checksum) with
        // NaN bits and re-stamp the checksum so only the NaN check trips.
        let ipc_at = bytes.len() - 16;
        bytes[ipc_at..ipc_at + 8].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        let sum = Fnv64::digest(&bytes[..bytes.len() - 8]);
        let at = bytes.len() - 8;
        bytes[at..].copy_from_slice(&sum.to_le_bytes());
        let err = PerfTable::from_bytes(&bytes).unwrap_err();
        assert!(
            matches!(err, TableError::Format(ref m) if m.contains("finite")),
            "{err:?}"
        );
    }

    #[test]
    fn store_cold_builds_then_warm_loads() {
        let dir = temp_dir("coldwarm");
        let store = TableStore::new(&dir);
        let cfg = tiny_config();
        let suite = tiny_suite();
        let cold = store.get_or_build(&cfg, &suite, 4).unwrap();
        assert!(!cold.cache_hit, "first run must simulate");
        assert!(store.path_for(&cfg, &suite).exists());
        let warm = store.get_or_build(&cfg, &suite, 4).unwrap();
        assert!(warm.cache_hit, "second run must skip PerfTable::build");
        assert_eq!(cold.table, warm.table, "cache must be bitwise faithful");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_distinguishes_configs_and_suites() {
        let suite = tiny_suite();
        let cfg = tiny_config();
        let fp = table_fingerprint(&cfg, &suite);
        // Different windows, topology or suite size change the key.
        assert_ne!(
            fp,
            table_fingerprint(&cfg.clone().with_windows(2_000, 3_000), &suite)
        );
        assert_ne!(
            fp,
            table_fingerprint(
                &MachineConfig::quadcore().with_windows(1_000, 3_000),
                &suite
            )
        );
        assert_ne!(fp, table_fingerprint(&cfg, &suite[..2]));
        // Same inputs, same key (stability within a process is the minimum;
        // FNV gives stability across runs and platforms too).
        assert_eq!(fp, table_fingerprint(&tiny_config(), &tiny_suite()));
    }

    #[test]
    fn content_fingerprint_round_trips_through_the_store() {
        let dir = temp_dir("content");
        let store = TableStore::new(&dir);
        let table = tiny_table();
        let fp = store.save_content(&table).unwrap();
        assert_eq!(fp, table.content_fingerprint());
        let loaded = store.load_content(fp).unwrap();
        assert_eq!(table, loaded, "content cache must be bitwise faithful");
        assert_eq!(loaded.content_fingerprint(), fp);
        // A different table never answers for this fingerprint.
        assert!(store.load_content(fp ^ 1).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mislabelled_content_file_reads_as_a_miss() {
        let dir = temp_dir("mislabel");
        let store = TableStore::new(&dir);
        let table = tiny_table();
        let fp = store.save_content(&table).unwrap();
        // A valid table file stored under the wrong fingerprint must not be
        // trusted: the re-verification catches the mismatch.
        let wrong = fp ^ 0xDEAD;
        std::fs::copy(store.path_for_content(fp), store.path_for_content(wrong)).unwrap();
        assert!(store.load_content(wrong).is_none());
        // Corruption likewise reads as a miss, not an error.
        std::fs::write(store.path_for_content(fp), b"torn").unwrap();
        assert!(store.load_content(fp).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_atomic_writers_never_produce_a_torn_read() {
        let dir = temp_dir("atomic");
        let store = TableStore::new(&dir);
        let table = tiny_table();
        let bytes = table.to_bytes();
        let path = store.path_for_content(table.content_fingerprint());
        // Hammer the same path from several writers while readers poll: a
        // reader may see "no file yet", but never a torn or partial table.
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..25 {
                        store.write_atomic(&path, &bytes).unwrap();
                    }
                });
            }
            for _ in 0..2 {
                scope.spawn(|| {
                    let mut seen = 0;
                    while seen < 50 {
                        match std::fs::read(&path) {
                            Ok(buf) => {
                                let loaded = PerfTable::from_bytes(&buf)
                                    .expect("a visible file is always complete");
                                assert_eq!(loaded, table);
                                seen += 1;
                            }
                            Err(_) => std::hint::spin_loop(),
                        }
                    }
                });
            }
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_cache_file_is_rebuilt() {
        let dir = temp_dir("rebuild");
        let store = TableStore::new(&dir);
        let cfg = tiny_config();
        let suite = tiny_suite();
        let cold = store.get_or_build(&cfg, &suite, 4).unwrap();
        let path = store.path_for(&cfg, &suite);
        std::fs::write(&path, b"garbage").unwrap();
        let rebuilt = store.get_or_build(&cfg, &suite, 4).unwrap();
        assert!(!rebuilt.cache_hit, "corrupt file must trigger a rebuild");
        assert_eq!(cold.table, rebuilt.table);
        // And the rebuild repaired the cache.
        let warm = store.get_or_build(&cfg, &suite, 4).unwrap();
        assert!(warm.cache_hit);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
