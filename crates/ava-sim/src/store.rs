//! The content-addressed on-disk result store behind incremental sweeps.
//!
//! Every simulated point of a sweep is a pure function of three things: the
//! *content* of the work (the compiled program bytes, the planned data
//! layout and the golden reference, folded into one stable
//! [`Fingerprint`]), the *resolved scenario* it runs on (display label plus
//! every recorded axis) and the *code version* of the simulator itself.
//! [`StoreKey`] captures exactly that triple, and [`ResultStore`] maps it to
//! the full [`RunReport`] of the run, serialized through [`crate::json`] and
//! parsed back bit-identically with [`RunReport::from_json`].
//!
//! The store is an ordinary directory of one JSON document per point.
//! Writes go through a temp-file-plus-rename so a killed process never
//! leaves a half-written entry under a final name, and *every* failure mode
//! on the read side — missing file, unreadable file, malformed JSON, schema
//! or version drift, key mismatch from a filename hash collision, truncated
//! report — degrades to a plain miss: the point is simply simulated again
//! and the entry overwritten. A sweep pointed at a store therefore
//! checkpoints itself as workers finish, resumes where it was killed, and
//! re-simulates only the points whose fingerprints changed.
//!
//! Entries also record the wall-clock time of the original run. No sweep
//! reads it back: the claim order is the static cost heuristic of
//! [`crate::Sweep::point_cost`], with or without a store.
//!
//! ```no_run
//! use ava_sim::{ResultStore, ScenarioConfig, Sweep};
//! use ava_workloads::Axpy;
//!
//! let store = ResultStore::open("results").unwrap();
//! let sweep = Sweep::grid(
//!     vec![std::sync::Arc::new(Axpy::new(4096))],
//!     ScenarioConfig::all_evaluated(),
//! );
//! // First run simulates and checkpoints; the second is served entirely
//! // from disk.
//! let cold = sweep.runner().store(&store).run();
//! assert_eq!(cold.store_misses, cold.points.len() as u64);
//! let warm = sweep.runner().store(&store).run();
//! assert_eq!(warm.store_hits, warm.points.len() as u64);
//! ```

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use ava_workloads::Fingerprint;

use crate::configs::{
    axes_from_json, axes_to_json, config_axes_key, workload_identity, Axis, SystemConfig,
};
use crate::json::{object, parse, Json};
use crate::run::RunReport;

/// The code-version component of every store key. Bumped implicitly by
/// every release: results computed by one simulator version are never
/// served to another, because any model change — even one the fingerprint
/// cannot see, like a cache-replacement tweak — may change every counter.
pub const CODE_VERSION: &str = concat!("ava-", env!("CARGO_PKG_VERSION"), "+store.v1");

/// The identity of one stored result: which workload content ran on which
/// resolved scenario under which simulator version.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreKey {
    /// Workload name ("axpy", "pipelined", ...).
    pub workload: String,
    /// Workload element count — together with the name this is the sweep's
    /// workload identity, so the entries of one kernel run at several
    /// problem sizes stay separate.
    pub elements: u64,
    /// Resolved scenario display label ("AVA X4", ...).
    pub config: String,
    /// Every recorded scenario axis, including pure-metadata axes like
    /// `iters` that deliberately stay out of the label.
    pub axes: Vec<Axis>,
    /// Content fingerprint over the compiled program, planned layout and
    /// golden reference.
    pub fingerprint: u64,
}

impl StoreKey {
    /// The key for `workload`'s content `fingerprint` on `system`.
    #[must_use]
    pub fn new(workload: &str, elements: u64, system: &SystemConfig, fingerprint: u64) -> Self {
        Self {
            workload: workload.to_string(),
            elements,
            config: system.label().to_string(),
            axes: system.axes.clone(),
            fingerprint,
        }
    }

    /// The entry file name: a sanitized workload prefix for human
    /// `ls`-ability plus a hash of the full key (fingerprint, config, axes
    /// and code version) for uniqueness. Collisions are not fatal — the
    /// full key is verified on read — they only cost a re-simulation.
    #[must_use]
    pub fn file_name(&self) -> String {
        let mut h = Fingerprint::new();
        h.write_str(CODE_VERSION);
        h.write_str(&self.workload);
        h.write_str(&self.config);
        h.write_u64(self.axes.len() as u64);
        for a in &self.axes {
            h.write_str(a.name);
            h.write_u64(a.value);
        }
        h.write_u64(self.fingerprint);
        let prefix: String = self
            .workload
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        format!("{prefix}-{:016x}.json", h.finish())
    }
}

/// A directory of checkpointed [`RunReport`]s, keyed by [`StoreKey`]. Safe
/// to share across sweep worker threads (all methods take `&self`; the
/// rename-based writes are atomic) and across processes pointed at the same
/// directory.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    tmp_counter: AtomicU64,
}

const SCHEMA: &str = "ava-result-store/v1";

impl ResultStore {
    /// Opens (creating if needed) the store directory.
    ///
    /// # Errors
    ///
    /// Returns `Err` if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, String> {
        let dir = dir.into();
        fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create result store at {}: {e}", dir.display()))?;
        Ok(Self {
            dir,
            tmp_counter: AtomicU64::new(0),
        })
    }

    /// The store's directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of entries currently on disk (including entries written by
    /// other versions, which [`ResultStore::lookup`] will ignore).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries().count()
    }

    /// Whether the store holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn entries(&self) -> impl Iterator<Item = PathBuf> {
        fs::read_dir(&self.dir)
            .into_iter()
            .flatten()
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
            .collect::<Vec<_>>()
            .into_iter()
    }

    /// The stored report for `key`, or `None`. Every failure — absent or
    /// unreadable entry, malformed JSON, schema/version drift, a key
    /// mismatch behind a colliding file name, a truncated report — is a
    /// plain miss; the caller re-simulates and overwrites.
    #[must_use]
    pub fn lookup(&self, key: &StoreKey) -> Option<RunReport> {
        let text = fs::read_to_string(self.dir.join(key.file_name())).ok()?;
        let doc = parse(&text).ok()?;
        if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA)
            || doc.get("version").and_then(Json::as_str) != Some(CODE_VERSION)
            || doc.get("workload").and_then(Json::as_str) != Some(&key.workload)
            || doc.get("elements").and_then(Json::as_u64) != Some(key.elements)
            || doc.get("config").and_then(Json::as_str) != Some(&key.config)
            || doc.get("fingerprint").and_then(Json::as_u64) != Some(key.fingerprint)
            || axes_from_json(doc.get("axes")?).ok()? != key.axes
        {
            return None;
        }
        RunReport::from_json(doc.get("report")?).ok()
    }

    /// Checkpoints one finished run under `key`, recording the wall time it
    /// took to simulate. The write is atomic (temp file + rename), so a
    /// concurrent reader sees either the previous entry or the complete new
    /// one — never a torn document.
    ///
    /// # Errors
    ///
    /// Returns `Err` if the entry cannot be written; the caller can treat
    /// the run as simply uncached.
    pub fn insert(&self, key: &StoreKey, report: &RunReport, wall_ns: u64) -> Result<(), String> {
        let doc = object()
            .field("schema", SCHEMA)
            .field("version", CODE_VERSION)
            .field("workload", key.workload.as_str())
            .field("elements", key.elements)
            .field("config", key.config.as_str())
            .field("axes", axes_to_json(&key.axes))
            .field("fingerprint", key.fingerprint)
            .field("wall_ns", wall_ns)
            .field("report", report.to_json())
            .finish();
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            self.tmp_counter.fetch_add(1, Ordering::Relaxed)
        ));
        let path = self.dir.join(key.file_name());
        fs::write(&tmp, format!("{doc}\n"))
            .map_err(|e| format!("cannot write store entry {}: {e}", tmp.display()))?;
        fs::rename(&tmp, &path).map_err(|e| {
            let _ = fs::remove_file(&tmp);
            format!("cannot commit store entry {}: {e}", path.display())
        })
    }

    /// The recorded wall time of every readable entry of the current code
    /// version. Kept only for the `perfbench` trace, which times this scan;
    /// no sweep calls it. Keyed by the workload identity (name plus element
    /// count) and the canonical config-plus-axes identity. Entries from
    /// other versions or with unreadable metadata are skipped; where several
    /// entries land on one key (e.g. a re-simulated point whose fingerprint
    /// changed), the largest time wins.
    #[must_use]
    pub fn recorded_costs(&self) -> HashMap<(String, String), u64> {
        let mut costs = HashMap::new();
        for path in self.entries() {
            let Ok(text) = fs::read_to_string(&path) else {
                continue;
            };
            let Ok(doc) = parse(&text) else { continue };
            if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA)
                || doc.get("version").and_then(Json::as_str) != Some(CODE_VERSION)
            {
                continue;
            }
            let (Some(workload), Some(elements), Some(config), Some(wall_ns)) = (
                doc.get("workload").and_then(Json::as_str),
                doc.get("elements").and_then(Json::as_u64),
                doc.get("config").and_then(Json::as_str),
                doc.get("wall_ns").and_then(Json::as_u64),
            ) else {
                continue;
            };
            let Some(Ok(axes)) = doc.get("axes").map(axes_from_json) else {
                continue;
            };
            let key = (
                workload_identity(workload, elements),
                config_axes_key(config, &axes),
            );
            let slot = costs.entry(key).or_insert(0);
            *slot = (*slot).max(wall_ns.max(1));
        }
        costs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::ScenarioConfig;
    use crate::run::run_workload;
    use ava_workloads::Axpy;

    fn temp_store(tag: &str) -> ResultStore {
        static UNIQUE: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ava-store-unit-{tag}-{}-{}",
            std::process::id(),
            UNIQUE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        ResultStore::open(dir).unwrap()
    }

    fn sample() -> (StoreKey, RunReport) {
        let scenario = ScenarioConfig::ava_x(2).with_iters(3);
        let report = run_workload(&Axpy::new(256), &scenario);
        let key = StoreKey::new("axpy", 512, &scenario.resolve(), 0xfeed_face);
        (key, report)
    }

    #[test]
    fn insert_then_lookup_round_trips_bit_identically() {
        let store = temp_store("roundtrip");
        let (key, report) = sample();
        assert!(store.lookup(&key).is_none(), "fresh store must miss");
        store.insert(&key, &report, 12_345).unwrap();
        let cached = store.lookup(&key).expect("hit after insert");
        assert_eq!(format!("{report:?}"), format!("{cached:?}"));
        assert_eq!(store.len(), 1);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn any_key_component_mismatch_is_a_miss() {
        let store = temp_store("mismatch");
        let (key, report) = sample();
        store.insert(&key, &report, 1).unwrap();
        let mut other = key.clone();
        other.fingerprint ^= 1;
        assert!(store.lookup(&other).is_none(), "fingerprint change");
        let mut other = key.clone();
        other.axes[0].value += 1;
        assert!(store.lookup(&other).is_none(), "axis change");
        assert!(store.lookup(&key).is_some(), "original still hits");
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupted_truncated_and_tampered_entries_are_misses() {
        let store = temp_store("corrupt");
        let (key, report) = sample();
        store.insert(&key, &report, 1).unwrap();
        let path = store.dir().join(key.file_name());

        let full = fs::read_to_string(&path).unwrap();
        fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(store.lookup(&key).is_none(), "truncated entry");

        fs::write(&path, "not json at all").unwrap();
        assert!(store.lookup(&key).is_none(), "garbage entry");

        // Valid JSON claiming a different simulator version.
        let tampered = full.replace(CODE_VERSION, "ava-0.0.0+store.v0");
        fs::write(&path, tampered).unwrap();
        assert!(store.lookup(&key).is_none(), "version drift");

        // Re-inserting overwrites the bad entry in place.
        store.insert(&key, &report, 1).unwrap();
        assert!(store.lookup(&key).is_some());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn recorded_costs_key_on_config_and_axes_and_keep_the_max() {
        let store = temp_store("costs");
        let (key, report) = sample();
        store.insert(&key, &report, 500).unwrap();
        // Same workload + scenario, different fingerprint (a re-simulated
        // point): separate file, same cost key, max wins.
        let mut rekeyed = key.clone();
        rekeyed.fingerprint ^= 0xff;
        store.insert(&rekeyed, &report, 900).unwrap();
        assert_eq!(store.len(), 2);

        let costs = store.recorded_costs();
        assert_eq!(costs.len(), 1);
        let identity = config_axes_key(&key.config, &key.axes);
        assert_eq!(costs[&("axpy#512".to_string(), identity)], 900);

        // The same kernel at a different problem size is a separate
        // workload identity, not a max-merge victim.
        let mut resized = key.clone();
        resized.elements = 1024;
        resized.fingerprint ^= 0xabc;
        store.insert(&resized, &report, 50).unwrap();
        assert_eq!(store.recorded_costs().len(), 2);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn file_names_are_sanitized_and_key_dependent() {
        let scenario = ScenarioConfig::ava_x(8).with_mvl(256);
        let key = StoreKey::new("pipelined/mix", 64, &scenario.resolve(), 7);
        let name = key.file_name();
        assert!(name.starts_with("pipelined-mix-"));
        assert!(name.ends_with(".json"));
        let mut other = key.clone();
        other.fingerprint = 8;
        assert_ne!(name, other.file_name());
    }
}
