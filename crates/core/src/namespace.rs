//! Multi-tenant namespaces: N independent indexes behind one registry,
//! each with its own corpus, similarity measure, flat or sharded
//! engine, attribute metadata and deletion log.
//!
//! A [`Namespaces`] registry maps names to [`Namespace`]s. Each
//! namespace owns a type-erased [`LiveIndex`] — the engine (`Les3Index`
//! or `ShardedLes3Index` over any of the four measures) with its
//! attribute metadata for filtered search and its deletion log for
//! tombstones. Queries take a read lock (many run concurrently, each in
//! the scratch its caller brings), mutations a write lock; dropping a
//! namespace only removes it from the registry — in-flight queries hold
//! an `Arc` and finish cleanly on the detached index.
//!
//! Filtered queries resolve the [`Filters`] predicate to a
//! [`FilterCandidates`](crate::FilterCandidates) mask once and hand it
//! to the engine's `search` as the [`Query`]'s `mask`, so hits *and*
//! [`SearchStats`] are bit-for-bit identical across flat/sharded
//! engines (`tests/filtered_equivalence.rs` pins this).
//!
//! ```
//! use les3_core::namespace::{NamespaceSpec, Namespaces};
//! use les3_core::metadata::{Filter, Filters};
//!
//! let registry = Namespaces::new();
//! let ns = registry
//!     .create(
//!         "products",
//!         NamespaceSpec {
//!             sets: vec![vec![0, 1, 2], vec![0, 1, 3], vec![7, 8]],
//!             attrs: vec![
//!                 vec![("color".into(), "red".into())],
//!                 vec![("color".into(), "blue".into())],
//!                 vec![("color".into(), "red".into())],
//!             ],
//!             ..Default::default()
//!         },
//!     )
//!     .unwrap();
//! let only_red = Filters(vec![Filter::Eq {
//!     key: "color".into(),
//!     value: "red".into(),
//! }]);
//! let res = ns.knn(&[0, 1, 2], 2, &only_red, &les3_core::QueryCtl::NONE).unwrap();
//! assert_eq!(res.hits.iter().map(|h| h.0).collect::<Vec<_>>(), vec![0, 2]);
//! ```

use std::collections::HashMap;
use std::path::Path;

use crate::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

use les3_data::{SetDatabase, SetId, TokenId};

use crate::batch::lock_unpoisoned;
use crate::ctl::{Interrupted, QueryCtl};
use crate::index::{Les3Index, SearchResult};
use crate::live::LiveIndex;
use crate::metadata::{Filters, MetaError, MetadataIndex, MAX_ATTRS_PER_SET, MAX_ATTR_STR};
use crate::partitioning::Partitioning;
use crate::persist::{self, DurableIndex, PersistError, PersistentBackend};
use crate::query::{Query, SearchOutcome};
use crate::scratch::QueryScratch;
use crate::shard::{ShardPolicy, ShardedLes3Index};
use crate::sim::{Cosine, Dice, Jaccard, OverlapCoefficient, Similarity};
use crate::stats::{SearchStats, StatsRecord};

/// Longest accepted namespace name.
pub const MAX_NAMESPACE_NAME: usize = 64;

/// Why a namespace operation failed.
#[derive(Debug)]
pub enum NamespaceError {
    /// No namespace with this name exists (HTTP 404).
    Unknown(String),
    /// A namespace with this name already exists.
    AlreadyExists(String),
    /// The request itself is malformed: bad name, unknown similarity,
    /// mismatched attribute list, attribute caps exceeded.
    Invalid(String),
    /// Saving or loading the namespace failed.
    Persist(PersistError),
}

impl std::fmt::Display for NamespaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NamespaceError::Unknown(name) => write!(f, "unknown namespace {name:?}"),
            NamespaceError::AlreadyExists(name) => {
                write!(f, "namespace {name:?} already exists")
            }
            NamespaceError::Invalid(detail) => write!(f, "invalid namespace request: {detail}"),
            NamespaceError::Persist(e) => write!(f, "namespace persistence: {e}"),
        }
    }
}

impl std::error::Error for NamespaceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NamespaceError::Persist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PersistError> for NamespaceError {
    fn from(e: PersistError) -> Self {
        NamespaceError::Persist(e)
    }
}

impl From<MetaError> for NamespaceError {
    fn from(e: MetaError) -> Self {
        NamespaceError::Invalid(e.to_string())
    }
}

/// A point-in-time description of one namespace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NamespaceInfo {
    /// Registry name.
    pub name: String,
    /// `"flat"` or `"sharded"`.
    pub kind: &'static str,
    /// Similarity measure name (`"jaccard"`, …).
    pub sim: &'static str,
    /// Sets ever inserted (live + tombstoned).
    pub n_sets: usize,
    /// Live (non-tombstoned) sets.
    pub live_sets: usize,
    /// Partitioning groups.
    pub n_groups: usize,
    /// Shards; 0 for a flat engine.
    pub n_shards: usize,
}

/// Parameters for creating a namespace.
#[derive(Debug, Clone, Default)]
pub struct NamespaceSpec {
    /// Similarity measure name; empty means `"jaccard"`.
    pub sim: String,
    /// Partitioning groups; 0 picks `⌈√n⌉` (min 1).
    pub n_groups: usize,
    /// Shards; 0 builds a flat engine.
    pub n_shards: usize,
    /// Initial corpus (sets may be unsorted; they are normalized).
    pub sets: Vec<Vec<TokenId>>,
    /// Per-set attributes, parallel to `sets`; empty means "no set has
    /// attributes".
    pub attrs: Vec<Vec<(String, String)>>,
}

/// Rejects attribute lists the metadata index would cap-violate on.
fn validate_attrs(attrs: &[(String, String)]) -> Result<(), NamespaceError> {
    if attrs.len() > MAX_ATTRS_PER_SET {
        return Err(NamespaceError::Invalid(format!(
            "{} attributes on one set exceeds the cap of {MAX_ATTRS_PER_SET}",
            attrs.len()
        )));
    }
    for (k, v) in attrs {
        if k.len() > MAX_ATTR_STR || v.len() > MAX_ATTR_STR {
            return Err(NamespaceError::Invalid(format!(
                "attribute key/value longer than {MAX_ATTR_STR} bytes"
            )));
        }
    }
    Ok(())
}

fn validate_name(name: &str) -> Result<(), NamespaceError> {
    if name.is_empty() || name.len() > MAX_NAMESPACE_NAME {
        return Err(NamespaceError::Invalid(format!(
            "namespace name must be 1..={MAX_NAMESPACE_NAME} characters"
        )));
    }
    if !name
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
    {
        return Err(NamespaceError::Invalid(
            "namespace name may only contain [A-Za-z0-9_-]".to_string(),
        ));
    }
    Ok(())
}

/// What the registry stores per namespace: a [`LiveIndex`] behind a
/// trait object, so one map can hold flat and sharded engines over any
/// measure.
trait NsBackend: Send + Sync {
    fn search(&self, q: &Query<'_>, filters: &Filters, scratch: &mut QueryScratch)
        -> SearchOutcome;
    fn insert(&mut self, tokens: &mut [TokenId], attrs: &[(String, String)]) -> (SetId, u32);
    fn delete(&mut self, id: SetId) -> bool;
    fn attrs_of(&self, id: SetId) -> Vec<(String, String)>;
    fn fill_info(&self, info: &mut NamespaceInfo);
    fn save(&self, dir: &Path) -> Result<(), PersistError>;
}

impl<E: PersistentBackend> NsBackend for LiveIndex<E> {
    fn search(
        &self,
        q: &Query<'_>,
        filters: &Filters,
        scratch: &mut QueryScratch,
    ) -> SearchOutcome {
        LiveIndex::search(self, q, filters, scratch)
    }

    fn insert(&mut self, tokens: &mut [TokenId], attrs: &[(String, String)]) -> (SetId, u32) {
        LiveIndex::insert(self, tokens, attrs)
    }

    fn delete(&mut self, id: SetId) -> bool {
        LiveIndex::delete(self, id)
    }

    fn attrs_of(&self, id: SetId) -> Vec<(String, String)> {
        self.meta().attrs(id)
    }

    fn fill_info(&self, info: &mut NamespaceInfo) {
        let engine = self.engine().sharded();
        info.kind = E::kind_name();
        info.sim = engine.sim().name();
        info.n_sets = engine.db().len();
        info.live_sets = self.log().live_count();
        info.n_groups = engine.partitioning().n_groups();
        info.n_shards = self.engine().n_shards() as usize;
    }

    fn save(&self, dir: &Path) -> Result<(), PersistError> {
        LiveIndex::save(self, dir)
    }
}

/// One named index. Obtained from a [`Namespaces`] registry; cheap to
/// clone via `Arc`, so queries racing a drop finish on the detached
/// index instead of panicking.
pub struct Namespace {
    name: String,
    inner: RwLock<Box<dyn NsBackend>>,
    /// Lifetime aggregate of every query served against this namespace
    /// (interrupted ones contribute their partial work plus an
    /// `expired`/`cancelled` count). The serving front's global
    /// aggregate sums these, so global = default route + Σ namespaces.
    agg: StatsRecord,
}

impl Namespace {
    fn read_inner(&self) -> RwLockReadGuard<'_, Box<dyn NsBackend>> {
        // Read-guard panics never poison, and writers run no user code
        // that can panic mid-invariant, so recover rather than propagate.
        self.inner
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Registry name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Exact kNN over this namespace, optionally attribute-filtered.
    pub fn knn(
        &self,
        query: &[TokenId],
        k: usize,
        filters: &Filters,
        ctl: &QueryCtl<'_>,
    ) -> Result<SearchResult, Interrupted> {
        let q = Query {
            ctl: *ctl,
            ..Query::knn(query, k)
        };
        self.search(&q, filters, &mut QueryScratch::new())
            .map(|(res, _)| res)
    }

    /// Exact range search over this namespace, optionally filtered.
    pub fn range(
        &self,
        query: &[TokenId],
        delta: f64,
        filters: &Filters,
        ctl: &QueryCtl<'_>,
    ) -> Result<SearchResult, Interrupted> {
        let q = Query {
            ctl: *ctl,
            ..Query::range(query, delta)
        };
        self.search(&q, filters, &mut QueryScratch::new())
            .map(|(res, _)| res)
    }

    /// Runs `q` over the sets `filters` admits (all of them when empty),
    /// in the caller's `scratch` (a serving worker passes the one it
    /// owns), and records it in this namespace's aggregate. The mask is
    /// the filters': `q.mask` speaks an engine's ids, which a namespace
    /// does not expose, and is ignored. An [`ApproxPolicy::Prefilter`]
    /// query runs exact (namespace engines build no MinHash sidecar);
    /// an [`ApproxPolicy::Anytime`] one commits the partial answer on
    /// deadline expiry — filtered or not, over live sets only — with a
    /// coverage-based recall estimate, and counts as served, not as
    /// `expired`.
    ///
    /// [`ApproxPolicy::Prefilter`]: crate::ApproxPolicy::Prefilter
    /// [`ApproxPolicy::Anytime`]: crate::ApproxPolicy::Anytime
    pub fn search(
        &self,
        q: &Query<'_>,
        filters: &Filters,
        scratch: &mut QueryScratch,
    ) -> SearchOutcome {
        let out = self.read_inner().search(q, filters, scratch);
        self.agg.note(&out);
        out
    }

    /// Where this namespace's queries are recorded — also one that never
    /// reached its engine (a request dead on arrival at its worker), so
    /// the global stats identity — front total = default route + Σ
    /// namespaces — covers rejections too.
    pub(crate) fn record(&self) -> &StatsRecord {
        &self.agg
    }

    /// Inserts a set with attributes; returns `(id, group)`.
    pub fn insert(
        &self,
        tokens: &mut [TokenId],
        attrs: &[(String, String)],
    ) -> Result<(SetId, u32), NamespaceError> {
        validate_attrs(attrs)?;
        let mut inner = self
            .inner
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Ok(inner.insert(tokens, attrs))
    }

    /// Tombstones a set; `false` for unknown or already-deleted ids.
    pub fn delete(&self, id: SetId) -> bool {
        self.inner
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .delete(id)
    }

    /// The attributes of set `id` (empty for unknown ids).
    pub fn attrs(&self, id: SetId) -> Vec<(String, String)> {
        self.read_inner().attrs_of(id)
    }

    /// A point-in-time description.
    pub fn info(&self) -> NamespaceInfo {
        let mut info = NamespaceInfo {
            name: self.name.clone(),
            kind: "flat",
            sim: "jaccard",
            n_sets: 0,
            live_sets: 0,
            n_groups: 0,
            n_shards: 0,
        };
        self.read_inner().fill_info(&mut info);
        info
    }

    /// Lifetime aggregate stats of queries served against this
    /// namespace.
    pub fn stats(&self) -> SearchStats {
        self.agg.get()
    }

    /// Snapshots this namespace into `dir` (segment + metadata block),
    /// advancing the epoch of any snapshot already there.
    pub fn save(&self, dir: &Path) -> Result<(), NamespaceError> {
        Ok(self.read_inner().save(dir)?)
    }
}

/// Builds the engine + wrapper a [`NamespaceSpec`] describes.
fn build_backend(spec: NamespaceSpec) -> Result<Box<dyn NsBackend>, NamespaceError> {
    let NamespaceSpec {
        sim,
        n_groups,
        n_shards,
        sets,
        attrs,
    } = spec;
    if !attrs.is_empty() && attrs.len() != sets.len() {
        return Err(NamespaceError::Invalid(format!(
            "{} attribute lists for {} sets",
            attrs.len(),
            sets.len()
        )));
    }
    let mut meta = MetadataIndex::new();
    if attrs.is_empty() {
        meta.push_empty(sets.len());
    } else {
        for set_attrs in &attrs {
            validate_attrs(set_attrs)?;
            meta.push(set_attrs);
        }
    }
    let n_sets = sets.len();
    let db = SetDatabase::from_sets(sets);
    let groups = if n_groups > 0 {
        n_groups
    } else {
        ((n_sets as f64).sqrt().ceil() as usize).max(1)
    };
    let part = Partitioning::round_robin(n_sets, groups);

    fn mk<S: Similarity>(
        sim: S,
        db: SetDatabase,
        part: Partitioning,
        n_shards: usize,
        meta: MetadataIndex,
    ) -> Box<dyn NsBackend> {
        if n_shards == 0 {
            Box::new(LiveIndex::with_attrs(Les3Index::build(db, part, sim), meta))
        } else {
            let engine = ShardedLes3Index::build(db, part, sim, n_shards, ShardPolicy::Contiguous);
            Box::new(LiveIndex::with_attrs(engine, meta))
        }
    }

    match sim.as_str() {
        "" | "jaccard" => Ok(mk(Jaccard, db, part, n_shards, meta)),
        "dice" => Ok(mk(Dice, db, part, n_shards, meta)),
        "cosine" => Ok(mk(Cosine, db, part, n_shards, meta)),
        "overlap" | "overlap-coefficient" => Ok(mk(OverlapCoefficient, db, part, n_shards, meta)),
        other => Err(NamespaceError::Invalid(format!(
            "unknown similarity {other:?} (expected jaccard, dice, cosine or overlap-coefficient)"
        ))),
    }
}

/// Opens the namespace snapshot in `dir` (written by
/// [`Namespace::save`]), replaying any WAL tail alongside it.
fn load_backend(dir: &Path) -> Result<Box<dyn NsBackend>, NamespaceError> {
    let seg = persist::read_meta(dir)?;

    fn open<B: PersistentBackend>(
        dir: &Path,
        sim: B::Sim,
    ) -> Result<Box<dyn NsBackend>, NamespaceError> {
        Ok(Box::new(DurableIndex::<B>::open(dir, sim)?.into_live()))
    }

    match (seg.sim_name.as_str(), seg.n_shards) {
        ("jaccard", 0) => open::<Les3Index<Jaccard>>(dir, Jaccard),
        ("jaccard", _) => open::<ShardedLes3Index<Jaccard>>(dir, Jaccard),
        ("dice", 0) => open::<Les3Index<Dice>>(dir, Dice),
        ("dice", _) => open::<ShardedLes3Index<Dice>>(dir, Dice),
        ("cosine", 0) => open::<Les3Index<Cosine>>(dir, Cosine),
        ("cosine", _) => open::<ShardedLes3Index<Cosine>>(dir, Cosine),
        ("overlap-coefficient", 0) => {
            open::<Les3Index<OverlapCoefficient>>(dir, OverlapCoefficient)
        }
        ("overlap-coefficient", _) => {
            open::<ShardedLes3Index<OverlapCoefficient>>(dir, OverlapCoefficient)
        }
        (other, _) => Err(NamespaceError::Invalid(format!(
            "snapshot uses unknown similarity {other:?}"
        ))),
    }
}

/// The namespace registry: create, look up, list, drop, save and load
/// namespaces. Share behind `Arc`; every operation takes `&self`.
#[derive(Default)]
pub struct Namespaces {
    map: RwLock<HashMap<String, Arc<Namespace>>>,
    /// Stats of dropped namespaces, folded in at drop so the global
    /// serving aggregate never goes backwards.
    retired: Mutex<SearchStats>,
}

impl Namespaces {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn read_map(&self) -> RwLockReadGuard<'_, HashMap<String, Arc<Namespace>>> {
        self.map
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn write_map(&self) -> RwLockWriteGuard<'_, HashMap<String, Arc<Namespace>>> {
        self.map
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Creates a namespace from `spec`. Fails on an invalid name or
    /// spec, or if the name is taken.
    pub fn create(
        &self,
        name: &str,
        spec: NamespaceSpec,
    ) -> Result<Arc<Namespace>, NamespaceError> {
        validate_name(name)?;
        // Build outside the registry lock: a large corpus must not
        // stall every other namespace's lookups.
        let backend = build_backend(spec)?;
        self.install(name, backend)
    }

    fn install(
        &self,
        name: &str,
        backend: Box<dyn NsBackend>,
    ) -> Result<Arc<Namespace>, NamespaceError> {
        let ns = Arc::new(Namespace {
            name: name.to_string(),
            inner: RwLock::new(backend),
            agg: StatsRecord::default(),
        });
        let mut map = self.write_map();
        if map.contains_key(name) {
            return Err(NamespaceError::AlreadyExists(name.to_string()));
        }
        map.insert(name.to_string(), Arc::clone(&ns));
        Ok(ns)
    }

    /// Looks a namespace up by name.
    pub fn get(&self, name: &str) -> Option<Arc<Namespace>> {
        self.read_map().get(name).cloned()
    }

    /// Removes a namespace from the registry; in-flight queries holding
    /// its `Arc` finish cleanly on the detached index. Returns whether
    /// the name existed.
    pub fn remove(&self, name: &str) -> bool {
        let removed = self.write_map().remove(name);
        match removed {
            Some(ns) => {
                lock_unpoisoned(&self.retired).accumulate(&ns.stats());
                true
            }
            None => false,
        }
    }

    /// Info for every namespace, sorted by name.
    pub fn list(&self) -> Vec<NamespaceInfo> {
        let mut out: Vec<NamespaceInfo> = self.read_map().values().map(|ns| ns.info()).collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Number of namespaces.
    pub fn len(&self) -> usize {
        self.read_map().len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.read_map().is_empty()
    }

    /// Query stats summed over every namespace, including dropped ones
    /// — the namespace share of the serving front's global aggregate.
    pub fn total_stats(&self) -> SearchStats {
        let mut out = *lock_unpoisoned(&self.retired);
        for ns in self.read_map().values() {
            out.accumulate(&ns.stats());
        }
        out
    }

    /// Snapshots every namespace into `root/<name>` and removes
    /// directories of namespaces that no longer exist (so a dropped
    /// namespace does not resurrect on reload).
    pub fn save_all(&self, root: &Path) -> Result<(), NamespaceError> {
        std::fs::create_dir_all(root).map_err(PersistError::from)?;
        let live: Vec<Arc<Namespace>> = self.read_map().values().cloned().collect();
        for ns in &live {
            ns.save(&root.join(ns.name()))?;
        }
        if let Ok(entries) = std::fs::read_dir(root) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                if !live.iter().any(|ns| ns.name() == name) {
                    std::fs::remove_dir_all(entry.path()).ok();
                }
            }
        }
        Ok(())
    }

    /// Loads every namespace snapshot under `root` (one subdirectory
    /// per namespace, as [`Namespaces::save_all`] writes them). Returns
    /// how many were loaded; a missing `root` loads zero.
    pub fn load_all(&self, root: &Path) -> Result<usize, NamespaceError> {
        let entries = match std::fs::read_dir(root) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(PersistError::from(e).into()),
        };
        let mut loaded = 0;
        for entry in entries.flatten() {
            if !entry.path().is_dir() {
                continue;
            }
            let name = entry.file_name();
            let Some(name) = name.to_str() else {
                continue;
            };
            validate_name(name)?;
            let backend = load_backend(&entry.path())?;
            self.install(name, backend)?;
            loaded += 1;
        }
        Ok(loaded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metadata::Filter;

    fn kv(k: &str, v: &str) -> (String, String) {
        (k.to_string(), v.to_string())
    }

    fn demo_spec(n_shards: usize) -> NamespaceSpec {
        NamespaceSpec {
            n_shards,
            sets: vec![
                vec![0, 1, 2],
                vec![0, 1, 3],
                vec![0, 2, 4],
                vec![5, 6, 7],
                vec![0, 1, 2, 3],
            ],
            attrs: vec![
                vec![kv("color", "red")],
                vec![kv("color", "blue")],
                vec![kv("color", "red")],
                vec![kv("color", "red")],
                vec![kv("color", "blue")],
            ],
            ..Default::default()
        }
    }

    fn red() -> Filters {
        Filters(vec![Filter::Eq {
            key: "color".into(),
            value: "red".into(),
        }])
    }

    #[test]
    fn create_query_drop_round_trip() {
        let registry = Namespaces::new();
        let ns = registry.create("demo", demo_spec(0)).unwrap();
        assert_eq!(registry.list().len(), 1);

        let res = ns
            .knn(&[0, 1, 2], 3, &Filters::none(), &QueryCtl::NONE)
            .unwrap();
        assert_eq!(res.hits[0].0, 0);

        let filtered = ns.knn(&[0, 1, 2], 3, &red(), &QueryCtl::NONE).unwrap();
        assert!(filtered.hits.iter().all(|&(id, _)| [0, 2, 3].contains(&id)));

        assert!(registry.remove("demo"));
        assert!(registry.get("demo").is_none());
        assert!(!registry.remove("demo"));
        // The detached handle still answers (racing queries stay safe).
        assert!(!ns
            .knn(&[0, 1, 2], 1, &Filters::none(), &QueryCtl::NONE)
            .unwrap()
            .hits
            .is_empty());
    }

    #[test]
    fn flat_and_sharded_filtered_answers_agree() {
        let registry = Namespaces::new();
        let flat = registry.create("flat", demo_spec(0)).unwrap();
        let sharded = registry.create("sharded", demo_spec(2)).unwrap();
        for filters in [Filters::none(), red()] {
            let a = flat.knn(&[0, 1, 2], 4, &filters, &QueryCtl::NONE).unwrap();
            let b = sharded
                .knn(&[0, 1, 2], 4, &filters, &QueryCtl::NONE)
                .unwrap();
            assert_eq!(a.hits, b.hits);
            assert_eq!(a.stats, b.stats);
        }
    }

    #[test]
    fn tombstones_never_surface_and_knn_refills() {
        let registry = Namespaces::new();
        let ns = registry.create("demo", demo_spec(0)).unwrap();
        // Set 0 is the exact match; delete it and k=2 must refill from
        // the remaining live red sets.
        assert!(ns.delete(0));
        assert!(!ns.delete(0), "double delete is a no-op");
        let res = ns.knn(&[0, 1, 2], 2, &red(), &QueryCtl::NONE).unwrap();
        assert_eq!(res.hits.len(), 2);
        assert!(res.hits.iter().all(|&(id, _)| id == 2 || id == 3));
        let rng = ns.range(&[0, 1, 2], 0.1, &red(), &QueryCtl::NONE).unwrap();
        assert!(rng.hits.iter().all(|&(id, _)| id != 0));
        assert_eq!(ns.info().live_sets, 4);
    }

    #[test]
    fn insert_updates_metadata_and_search() {
        let registry = Namespaces::new();
        let ns = registry.create("demo", demo_spec(2)).unwrap();
        let (id, _) = ns.insert(&mut [0, 1, 2, 9], &[kv("color", "red")]).unwrap();
        assert_eq!(ns.attrs(id), vec![kv("color", "red")]);
        let res = ns.knn(&[0, 1, 2, 9], 1, &red(), &QueryCtl::NONE).unwrap();
        assert_eq!(res.hits[0].0, id);
    }

    #[test]
    fn empty_namespace_accepts_inserts() {
        let registry = Namespaces::new();
        let ns = registry.create("empty", NamespaceSpec::default()).unwrap();
        assert!(ns
            .knn(&[1, 2], 3, &Filters::none(), &QueryCtl::NONE)
            .unwrap()
            .hits
            .is_empty());
        let (id, _) = ns.insert(&mut [1, 2, 3], &[kv("kind", "a")]).unwrap();
        let hit = ns
            .knn(
                &[1, 2, 3],
                1,
                &Filters(vec![Filter::Eq {
                    key: "kind".into(),
                    value: "a".into(),
                }]),
                &QueryCtl::NONE,
            )
            .unwrap();
        assert_eq!(hit.hits[0].0, id);
    }

    #[test]
    fn names_and_specs_are_validated() {
        let registry = Namespaces::new();
        for bad in ["", "a/b", "x y", &"n".repeat(65)] {
            assert!(matches!(
                registry.create(bad, NamespaceSpec::default()),
                Err(NamespaceError::Invalid(_))
            ));
        }
        assert!(matches!(
            registry.create(
                "demo",
                NamespaceSpec {
                    sim: "euclidean".into(),
                    ..Default::default()
                }
            ),
            Err(NamespaceError::Invalid(_))
        ));
        assert!(matches!(
            registry.create(
                "demo",
                NamespaceSpec {
                    sets: vec![vec![0]],
                    attrs: vec![vec![], vec![]],
                    ..Default::default()
                }
            ),
            Err(NamespaceError::Invalid(_))
        ));
        registry.create("demo", demo_spec(0)).unwrap();
        assert!(matches!(
            registry.create("demo", demo_spec(0)),
            Err(NamespaceError::AlreadyExists(_))
        ));
    }

    #[test]
    fn cross_namespace_isolation_with_same_ids() {
        let registry = Namespaces::new();
        let a = registry
            .create(
                "a",
                NamespaceSpec {
                    sets: vec![vec![0, 1], vec![2, 3]],
                    ..Default::default()
                },
            )
            .unwrap();
        let b = registry
            .create(
                "b",
                NamespaceSpec {
                    sets: vec![vec![8, 9], vec![0, 1]],
                    ..Default::default()
                },
            )
            .unwrap();
        let ra = a
            .knn(&[0, 1], 1, &Filters::none(), &QueryCtl::NONE)
            .unwrap();
        let rb = b
            .knn(&[0, 1], 1, &Filters::none(), &QueryCtl::NONE)
            .unwrap();
        assert_eq!(ra.hits[0].0, 0);
        assert_eq!(rb.hits[0].0, 1, "same ids, different corpora");
    }

    #[test]
    fn stats_accumulate_and_survive_drop() {
        let registry = Namespaces::new();
        let ns = registry.create("demo", demo_spec(0)).unwrap();
        let res = ns
            .knn(&[0, 1, 2], 2, &Filters::none(), &QueryCtl::NONE)
            .unwrap();
        assert_eq!(ns.stats(), res.stats);
        assert_eq!(registry.total_stats(), res.stats);
        registry.remove("demo");
        assert_eq!(
            registry.total_stats(),
            res.stats,
            "retired stats keep the global aggregate monotone"
        );
    }

    #[test]
    fn save_and_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("les3-ns-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let registry = Namespaces::new();
        let ns = registry.create("demo", demo_spec(2)).unwrap();
        ns.delete(1);
        ns.insert(&mut [0, 9, 11], &[kv("color", "red")]).unwrap();
        registry.save_all(&dir).unwrap();

        let reloaded = Namespaces::new();
        assert_eq!(reloaded.load_all(&dir).unwrap(), 1);
        let back = reloaded.get("demo").unwrap();
        assert_eq!(back.info(), ns.info());
        for filters in [Filters::none(), red()] {
            let a = ns.knn(&[0, 1, 2], 4, &filters, &QueryCtl::NONE).unwrap();
            let b = back.knn(&[0, 1, 2], 4, &filters, &QueryCtl::NONE).unwrap();
            assert_eq!(a.hits, b.hits);
            assert_eq!(a.stats, b.stats, "reload is bit-for-bit");
        }
        assert_eq!(back.attrs(5), vec![kv("color", "red")]);

        // A dropped namespace must not resurrect from a stale dir.
        reloaded.remove("demo");
        reloaded.save_all(&dir).unwrap();
        let third = Namespaces::new();
        assert_eq!(third.load_all(&dir).unwrap(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
