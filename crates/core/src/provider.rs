//! The frequency-set provider: bounded-memory Incognito.
//!
//! Every engine in this crate (Basic, Super-roots, Cube, and the
//! bottom-up baselines) obtains its frequency sets through a
//! [`FreqProvider`], which transparently degrades to the disk-backed
//! [`ExternalFrequencySet`] whenever the process's live bytes — measured
//! by the `incognito_obs::mem` tracking allocator — exceed the
//! [`Config::memory_budget`]. This is the paper's §7 future work
//! ("the case where … the intermediate frequency tables do not fit in
//! main memory") made concrete: the search is unchanged, the *plans* are
//! unchanged (so counters stay byte-identical to the in-memory run), and
//! only the representation behind each [`FreqHandle`] differs.
//!
//! The key property preserved out-of-core is the paper's §3 Rollup: a
//! spilled parent's child is derived partition-by-partition on disk
//! ([`ExternalFrequencySet::rollup`]) instead of falling back to a base
//! table rescan. When the budget regains headroom for a derived set's
//! estimated materialized size, the set upgrades to the in-memory form
//! (`table.spill.upgrades` counts these), so a transient spike doesn't
//! pin the rest of the search on disk.
//!
//! Spill files go under [`Config::spill_dir`] (builder
//! [`Config::with_spill_dir`], environment default
//! `INCOGNITO_SPILL_DIR`), falling back to the OS temp directory — which
//! on Linux is frequently a RAM-backed tmpfs, where spilling still
//! consumes physical memory; redirect it when the budget matters.
//!
//! A provider built with [`FreqProvider::relational`] answers from the
//! paper's own substrate instead: the Figure 4 star schema, with scans as
//! `COUNT(*) … GROUP BY` queries and rollups as `SUM(count)` queries
//! through a dimension relation ([`incognito_rel::freq`]). Relational
//! sets stay in memory regardless of the budget.

use std::path::PathBuf;

use incognito_hierarchy::LevelNo;
use incognito_rel::freq::{frequency_set_sql, rollup_sql, tuples_below_sql};
use incognito_rel::{Relation, StarSchema};
use incognito_table::{ExternalFrequencySet, FrequencySet, GroupSpec, Schema, Table, TableError};

use crate::{AlgoError, Config};

/// Spill fan-out for provider-built external sets: enough partitions that
/// one partition's distinct groups stay small, few enough that the
/// per-partition write buffers stay useful.
const SPILL_PARTITIONS: usize = 64;

/// A frequency set in whichever representation its provider produced:
/// fully in memory, spilled to hash partitions on disk (over the memory
/// budget), or a relation over the star schema (the SQL path).
///
/// All predicates answer identically in every representation (the spilled
/// form streams one partition at a time); the `Result` on the accessors
/// carries the spill path's IO errors and the relational engine's errors,
/// which the in-memory form can never produce.
pub enum FreqHandle {
    /// The ordinary in-memory frequency set.
    Mem(FrequencySet),
    /// A disk-backed frequency set (over budget at creation time).
    Ext(ExternalFrequencySet),
    /// A `GROUP BY` result over the star schema: one label column per
    /// spec part plus an Int `count` column.
    Rel {
        /// The frequency relation.
        rel: Relation,
        /// The grouping spec its label columns follow.
        spec: GroupSpec,
    },
}

impl FreqHandle {
    /// The grouping spec.
    pub fn spec(&self) -> &GroupSpec {
        match self {
            FreqHandle::Mem(f) => f.spec(),
            FreqHandle::Ext(e) => e.spec(),
            FreqHandle::Rel { spec, .. } => spec,
        }
    }

    /// Number of distinct groups.
    pub fn num_groups(&self) -> Result<usize, AlgoError> {
        match self {
            FreqHandle::Mem(f) => Ok(f.num_groups()),
            FreqHandle::Ext(e) => Ok(e.num_groups()?),
            FreqHandle::Rel { rel, .. } => Ok(rel.len()),
        }
    }

    /// The K-Anonymity Property.
    pub fn is_k_anonymous(&self, k: u64) -> Result<bool, AlgoError> {
        match self {
            FreqHandle::Mem(f) => Ok(f.is_k_anonymous(k)),
            FreqHandle::Ext(e) => Ok(e.is_k_anonymous(k)?),
            FreqHandle::Rel { rel, .. } => Ok(tuples_below_sql(rel, k)? == 0),
        }
    }

    /// K-anonymity modulo at most `max_suppress` suppressed tuples (§2.1).
    pub fn is_k_anonymous_with_suppression(
        &self,
        k: u64,
        max_suppress: u64,
    ) -> Result<bool, AlgoError> {
        match self {
            FreqHandle::Mem(f) => Ok(f.is_k_anonymous_with_suppression(k, max_suppress)),
            FreqHandle::Ext(e) => Ok(e.is_k_anonymous_with_suppression(k, max_suppress)?),
            FreqHandle::Rel { rel, .. } => Ok(tuples_below_sql(rel, k)? <= max_suppress),
        }
    }

    /// Tuples in groups smaller than `k` (the suppression tally).
    pub fn tuples_below(&self, k: u64) -> Result<u64, AlgoError> {
        match self {
            FreqHandle::Mem(f) => Ok(f.tuples_below(k)),
            FreqHandle::Ext(e) => Ok(e.tuples_below(k)?),
            FreqHandle::Rel { rel, .. } => Ok(tuples_below_sql(rel, k)?),
        }
    }

    /// Approximate heap bytes held by this handle. A spilled set's groups
    /// live on disk, so only its bookkeeping counts (reported as zero —
    /// it is negligible next to any in-memory set).
    pub fn resident_bytes(&self) -> u64 {
        match self {
            FreqHandle::Mem(f) => f.resident_bytes(),
            FreqHandle::Ext(_) => 0,
            FreqHandle::Rel { rel, .. } => rel.heap_bytes(),
        }
    }

    /// True when the set lives on disk.
    pub fn is_spilled(&self) -> bool {
        matches!(self, FreqHandle::Ext(_))
    }

    /// Borrow the in-memory representation, if that is what this is.
    pub fn as_mem(&self) -> Option<&FrequencySet> {
        match self {
            FreqHandle::Mem(f) => Some(f),
            FreqHandle::Ext(_) | FreqHandle::Rel { .. } => None,
        }
    }
}

/// The provider every engine routes frequency-set construction through.
///
/// Holds the base table, the memory budget, the spill location, and for
/// the SQL path the star schema; it is `Sync`, so wave-parallel engines
/// can call it from pool workers (each call builds an independent set —
/// the provider itself carries no mutable state).
pub struct FreqProvider<'t> {
    table: &'t Table,
    budget: Option<u64>,
    spill_root: PathBuf,
    /// The star schema the SQL path queries; `None` for the columnar
    /// substrate.
    star: Option<StarSchema>,
}

impl<'t> FreqProvider<'t> {
    /// A provider over `table` honoring `cfg.memory_budget`. Spill files
    /// go under `cfg.spill_dir` — falling back to the OS temp directory,
    /// which on Linux is frequently a RAM-backed tmpfs; point
    /// [`Config::with_spill_dir`] (or `INCOGNITO_SPILL_DIR`) at a real
    /// filesystem when the budget matters. Each set spills into its own
    /// collision-free subdirectory, removed when the set drops.
    pub fn new(table: &'t Table, cfg: &Config) -> Self {
        FreqProvider {
            table,
            budget: cfg.memory_budget,
            spill_root: cfg.spill_dir.clone().unwrap_or_else(std::env::temp_dir),
            star: None,
        }
    }

    /// A provider that answers every request with SQL over the Figure 4
    /// star schema of `table` restricted to `qi`, which it materializes
    /// here. Its sets never spill.
    pub fn relational(table: &'t Table, qi: &[usize], cfg: &Config) -> Result<Self, AlgoError> {
        let star = StarSchema::build(table, qi)?;
        Ok(FreqProvider { star: Some(star), ..Self::new(table, cfg) })
    }

    /// True when this provider runs SQL over a star schema.
    pub fn is_relational(&self) -> bool {
        self.star.is_some()
    }

    /// The star schema behind a relational handle. Relational handles
    /// only come from a relational provider.
    fn star(&self) -> &StarSchema {
        self.star.as_ref().expect("relational handles come from a relational provider")
    }

    /// The base table this provider scans.
    pub fn table(&self) -> &'t Table {
        self.table
    }

    /// True while the process's live bytes exceed the budget — the next
    /// columnar set built through this provider will spill.
    pub fn over_budget(&self) -> bool {
        self.budget
            .is_some_and(|b| incognito_obs::mem::live_bytes() > b)
    }

    /// Scan the base table for `spec`'s frequency set, spilling when over
    /// budget. `threads > 1` engages the row-split parallel scan (only
    /// meaningful for the in-memory representation). A relational provider
    /// runs the `COUNT(*) … GROUP BY` query over its fact relation instead.
    pub fn scan(&self, spec: &GroupSpec, threads: usize) -> Result<FreqHandle, AlgoError> {
        if let Some(star) = &self.star {
            let rel = frequency_set_sql(star, spec.parts())?;
            Ok(FreqHandle::Rel { rel, spec: spec.clone() })
        } else if self.over_budget() {
            let ext =
                ExternalFrequencySet::build(self.table, spec, SPILL_PARTITIONS, &self.spill_root)?;
            Ok(FreqHandle::Ext(ext))
        } else if threads > 1 {
            Ok(FreqHandle::Mem(self.table.frequency_set_parallel(spec, threads)?))
        } else {
            Ok(FreqHandle::Mem(self.table.frequency_set(spec)?))
        }
    }

    /// The Rollup Property through the budget: an in-memory parent rolls
    /// up in memory; a spilled parent rolls up partition-by-partition on
    /// disk, then upgrades to the in-memory form if the budget has
    /// headroom for the child's estimated materialized size. A relational
    /// parent rolls up with a `SUM(count)` query through the changed
    /// attributes' dimension relations.
    pub fn rollup(
        &self,
        parent: &FreqHandle,
        schema: &Schema,
        target: &[LevelNo],
    ) -> Result<FreqHandle, AlgoError> {
        match parent {
            FreqHandle::Mem(f) => Ok(FreqHandle::Mem(f.rollup(schema, target)?)),
            FreqHandle::Ext(e) => {
                let child = e.rollup(schema, target, &self.spill_root)?;
                self.maybe_upgrade(child)
            }
            FreqHandle::Rel { rel, spec } => {
                let (child, _) = spec.rolled_up(schema, target)?;
                let rel = rollup_sql(self.star(), rel, spec.parts(), target)?;
                Ok(FreqHandle::Rel { rel, spec: child })
            }
        }
    }

    /// The Subset Property through the budget (Cube Incognito's
    /// projections), same upgrade policy as [`FreqProvider::rollup`].
    /// Cube Incognito never runs on the star schema, so relational sets
    /// have no projection.
    pub fn project(&self, parent: &FreqHandle, keep: &[usize]) -> Result<FreqHandle, AlgoError> {
        match parent {
            FreqHandle::Mem(f) => Ok(FreqHandle::Mem(f.project(keep)?)),
            FreqHandle::Ext(e) => {
                let child = e.project(keep, &self.spill_root)?;
                self.maybe_upgrade(child)
            }
            FreqHandle::Rel { .. } => {
                let msg = "the SQL path does not project frequency relations".to_string();
                Err(TableError::IncompatibleSpec(msg).into())
            }
        }
    }

    /// Upgrade a derived spilled child to the in-memory form only when
    /// the budget has headroom for its *materialized* size, estimated
    /// from the child's spilled footprint. A bare [`Self::over_budget`]
    /// sample is not enough: it is a point-in-time reading that says
    /// nothing about how large the child will be once materialized, so a
    /// big child could blow far past the budget right after the check
    /// passed. The estimate is an upper bound, so admission errs toward
    /// keeping the child on disk.
    fn maybe_upgrade(&self, child: ExternalFrequencySet) -> Result<FreqHandle, AlgoError> {
        let fits = match self.budget {
            None => true,
            Some(b) => incognito_obs::mem::live_bytes()
                .saturating_add(child.estimated_resident_bytes())
                <= b,
        };
        if fits {
            Ok(FreqHandle::Mem(child.into_frequency_set()?))
        } else {
            Ok(FreqHandle::Ext(child))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::patients;

    fn handle_rows(h: &FreqHandle, schema: &std::sync::Arc<Schema>) -> Vec<(Vec<String>, u64)> {
        match h {
            FreqHandle::Mem(f) => f.to_labeled_rows(schema),
            _ => panic!("expected in-memory handle"),
        }
    }

    #[test]
    fn unlimited_budget_stays_in_memory() {
        let t = patients();
        let cfg = Config::new(2).with_unlimited_memory();
        let p = FreqProvider::new(&t, &cfg);
        assert!(!p.over_budget());
        let spec = GroupSpec::ground(&[0, 1]).unwrap();
        let h = p.scan(&spec, 1).unwrap();
        assert!(!h.is_spilled());
    }

    #[test]
    fn zero_budget_spills_everything_with_identical_answers() {
        let t = patients();
        let cfg = Config::new(2).with_memory_budget(0);
        let p = FreqProvider::new(&t, &cfg);
        assert!(p.over_budget(), "live bytes are always above a zero budget");
        let spec = GroupSpec::ground(&[0, 1, 2]).unwrap();
        let h = p.scan(&spec, 1).unwrap();
        assert!(h.is_spilled());
        let mem = t.frequency_set(&spec).unwrap();
        assert_eq!(h.tuples_below(u64::MAX).unwrap(), mem.total());
        assert_eq!(h.num_groups().unwrap(), mem.num_groups());
        for k in [1, 2, 3, 10] {
            assert_eq!(h.is_k_anonymous(k).unwrap(), mem.is_k_anonymous(k));
            assert_eq!(h.tuples_below(k).unwrap(), mem.tuples_below(k));
        }

        // Spilled rollup agrees with the in-memory rollup.
        let schema = t.schema();
        let target: Vec<_> = spec
            .parts()
            .iter()
            .map(|&(a, _)| schema.hierarchy(a).height())
            .collect();
        let rolled = p.rollup(&h, schema, &target).unwrap();
        assert!(rolled.is_spilled(), "still over budget, child stays on disk");
        let mem_rolled = mem.rollup(schema, &target).unwrap();
        assert_eq!(rolled.num_groups().unwrap(), mem_rolled.num_groups());
        assert_eq!(rolled.tuples_below(5).unwrap(), mem_rolled.tuples_below(5));
    }

    #[test]
    fn relational_provider_answers_like_the_columnar_one() {
        let t = patients();
        // A zero budget would spill a columnar set; relational sets never do.
        let cfg = Config::new(2).with_memory_budget(0);
        let p = FreqProvider::relational(&t, &[0, 1, 2], &cfg).unwrap();
        assert!(p.is_relational());
        let spec = GroupSpec::ground(&[0, 1, 2]).unwrap();
        let scanned = p.scan(&spec, 2).unwrap();
        let rolled = p.rollup(&scanned, t.schema(), &[1, 1, 1]).unwrap();
        let mem = t.frequency_set(&spec).unwrap();
        let mem_rolled = mem.rollup(t.schema(), &[1, 1, 1]).unwrap();
        for (h, m) in [(&scanned, &mem), (&rolled, &mem_rolled)] {
            assert!(matches!(h, FreqHandle::Rel { .. }) && !h.is_spilled());
            assert_eq!(h.spec(), m.spec());
            assert_eq!(h.num_groups().unwrap(), m.num_groups());
            for k in [1, 2, 3, 10] {
                assert_eq!(h.is_k_anonymous(k).unwrap(), m.is_k_anonymous(k));
                assert_eq!(h.tuples_below(k).unwrap(), m.tuples_below(k));
                assert_eq!(
                    h.is_k_anonymous_with_suppression(k, 2).unwrap(),
                    m.is_k_anonymous_with_suppression(k, 2)
                );
            }
        }
        assert!(p.rollup(&scanned, t.schema(), &[1, 1]).is_err());
        assert!(p.project(&scanned, &[0]).is_err());
    }

    #[test]
    fn every_representation_rejects_bad_rollup_and_projection_targets() {
        let t = patients();
        let spec = GroupSpec::new(vec![(0, 1), (1, 1)]).unwrap();
        let unlimited = Config::new(2).with_unlimited_memory();
        let mem = FreqProvider::new(&t, &unlimited);
        let ext = FreqProvider::new(&t, &Config::new(2).with_memory_budget(0));
        let rel = FreqProvider::relational(&t, &[0, 1, 2], &unlimited).unwrap();
        for (label, p) in [("mem", &mem), ("ext", &ext), ("rel", &rel)] {
            let h = p.scan(&spec, 1).unwrap();
            assert_eq!(h.is_spilled(), label == "ext", "{label}");
            assert!(p.rollup(&h, t.schema(), &[0, 1]).is_err(), "{label}: downward rollup");
            if label != "rel" {
                assert!(p.project(&h, &[1, 0]).is_err(), "{label}: unordered projection");
            }
        }
    }

    /// The `incognito-spill-*` directories directly under `root`.
    fn spill_dirs(root: &std::path::Path) -> Vec<PathBuf> {
        let Ok(entries) = std::fs::read_dir(root) else { return Vec::new() };
        let is_spill = |n: &std::ffi::OsStr| n.to_string_lossy().starts_with("incognito-spill-");
        entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.file_name().is_some_and(is_spill))
            .collect()
    }

    #[test]
    fn a_missing_partition_file_is_a_spill_error() {
        let t = patients();
        let root = std::env::temp_dir()
            .join(format!("incognito-missing-partition-test-{}", std::process::id()));
        let cfg = Config::new(2).with_memory_budget(0).with_spill_dir(&root);
        let p = FreqProvider::new(&t, &cfg);
        let h = p.scan(&GroupSpec::ground(&[0, 1, 2]).unwrap(), 1).unwrap();
        assert!(h.is_spilled());
        let dirs = spill_dirs(&root);
        assert_eq!(dirs.len(), 1);
        std::fs::remove_file(dirs[0].join("part-0.bin")).unwrap();
        assert!(matches!(h.is_k_anonymous(2), Err(AlgoError::Spill(_))));
        assert!(matches!(h.tuples_below(2), Err(AlgoError::Spill(_))));
        drop(h);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_spill_root_that_is_a_file_fails_the_scan_and_leaves_nothing() {
        let t = patients();
        let parent = std::env::temp_dir()
            .join(format!("incognito-file-root-test-{}", std::process::id()));
        std::fs::create_dir_all(&parent).unwrap();
        let root = parent.join("not-a-directory");
        std::fs::write(&root, b"occupied").unwrap();
        let cfg = Config::new(2).with_memory_budget(0).with_spill_dir(&root);
        let p = FreqProvider::new(&t, &cfg);
        assert!(p.scan(&GroupSpec::ground(&[0, 1]).unwrap(), 1).is_err());
        assert!(spill_dirs(&parent).is_empty(), "a failed scan leaves no spill directory");
        assert_eq!(std::fs::read(&root).unwrap(), b"occupied", "the file is untouched");
        let _ = std::fs::remove_dir_all(&parent);
    }

    #[test]
    fn spill_dir_config_redirects_spill_files() {
        let t = patients();
        let root = std::env::temp_dir()
            .join(format!("incognito-spill-dir-test-{}", std::process::id()));
        let cfg = Config::new(2).with_memory_budget(0).with_spill_dir(&root);
        let p = FreqProvider::new(&t, &cfg);
        let spec = GroupSpec::ground(&[0, 1]).unwrap();
        let h = p.scan(&spec, 1).unwrap();
        assert!(h.is_spilled());
        assert_eq!(spill_dirs(&root).len(), 1, "the set spills under the configured root");
        drop(h);
        assert_eq!(
            std::fs::read_dir(&root).unwrap().count(),
            0,
            "dropping the set removes its spill subdirectory"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn upgrade_requires_headroom_for_materialized_size_not_just_budget() {
        use incognito_data::{adults, AdultsConfig};
        // A wide ground spec keeps the group count near the row count, so
        // the same-level rollup below produces a child whose estimated
        // in-memory footprint (megabytes) dwarfs the headroom granted.
        let t = adults(&AdultsConfig { rows: 20_000, seed: 13 });
        let spec = GroupSpec::ground(&[0, 1, 2, 3]).unwrap();
        let ext = ExternalFrequencySet::build(&t, &spec, 8, &std::env::temp_dir()).unwrap();
        let parent = FreqHandle::Ext(ext);
        // Live bytes sit under this budget (the pre-fix point-in-time
        // check would admit the upgrade), but the headroom is far below
        // the child's estimated materialized size.
        let budget = incognito_obs::mem::live_bytes() + (256 << 10);
        let cfg = Config::new(2).with_memory_budget(budget);
        let p = FreqProvider::new(&t, &cfg);
        assert!(!p.over_budget(), "precondition: the sample alone says 'under budget'");
        let child = p.rollup(&parent, t.schema(), &[0, 0, 0, 0]).unwrap();
        assert!(
            child.is_spilled(),
            "a child too big for the remaining headroom must stay on disk"
        );
    }

    #[test]
    fn rollup_of_spilled_parent_upgrades_when_back_under_budget() {
        let t = patients();
        let spec = GroupSpec::ground(&[0, 1]).unwrap();
        // Build the spilled parent directly, then hand it to a provider
        // with a budget far above current usage: the derived child must
        // come back in memory, identical to the in-memory rollup.
        let ext = ExternalFrequencySet::build(&t, &spec, 4, &std::env::temp_dir()).unwrap();
        let parent = FreqHandle::Ext(ext);
        let generous = incognito_obs::mem::live_bytes() + (1 << 30);
        let cfg = Config::new(2).with_memory_budget(generous);
        let p = FreqProvider::new(&t, &cfg);
        let child = p.rollup(&parent, t.schema(), &[1, 1]).unwrap();
        assert!(!child.is_spilled(), "under budget, rollup upgrades to memory");
        let mem_child = t.frequency_set(&spec).unwrap().rollup(t.schema(), &[1, 1]).unwrap();
        assert_eq!(
            handle_rows(&child, t.schema()),
            mem_child.to_labeled_rows(t.schema())
        );
    }
}
