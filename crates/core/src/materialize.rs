//! Strategic materialization of frequency sets — the paper's §7 future-work
//! item: *"the performance of Incognito can be enhanced even more by
//! strategically materializing portions of the data cube, including count
//! aggregates at various points in the dimension hierarchies"* (citing
//! Harinarayan/Rajaraman/Ullman's view-selection work \[9\]).
//!
//! A [`FreqStore`] is a persistent cache of frequency sets keyed by
//! [`GroupSpec`]. Point lookups hit exact materializations; misses fall
//! back to the *cheapest materialized ancestor* — any stored frequency set
//! over a superset of the requested attributes at lower-or-equal levels can
//! answer the request by projection + rollup (Subset and Rollup
//! properties), at a cost proportional to its group count rather than the
//! base table's row count. [`MaterializationPolicy`] selects what to
//! pre-compute, trading memory for repeated-anonymization speed (the
//! "anonymize the same table for many k / many quasi-identifiers" workflow
//! of the retail example).

use incognito_hierarchy::LevelNo;
use incognito_table::fxhash::FxHashMap;
use incognito_table::{FrequencySet, GroupSpec, Table, TableError};

/// What to pre-materialize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaterializationPolicy {
    /// Nothing up front; the store fills lazily as queries arrive.
    Lazy,
    /// The zero-generalization frequency set of every subset of the
    /// quasi-identifier (Cube Incognito's choice, §3.3.2).
    ZeroCube,
    /// Every subset at *every* level combination whose group count does not
    /// exceed `max_groups` — the §7 idea of materializing counts at various
    /// points in the dimension hierarchies, with a size budget standing in
    /// for \[9\]'s benefit metric.
    LeveledCube {
        /// Upper bound on the group count of any stored frequency set.
        max_groups: usize,
    },
}

/// Counters describing how the store answered queries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Queries answered from an exact materialization.
    pub exact_hits: usize,
    /// Queries answered by projecting/rolling up a materialized ancestor.
    pub derived_hits: usize,
    /// Queries that had to scan the base table.
    pub misses: usize,
    /// Frequency sets materialized (pre-computation plus lazily cached).
    pub materialized: usize,
}

/// A cache of materialized frequency sets over one table.
pub struct FreqStore<'t> {
    table: &'t Table,
    qi: Vec<usize>,
    store: FxHashMap<Vec<(usize, LevelNo)>, FrequencySet>,
    stats: StoreStats,
}

impl<'t> FreqStore<'t> {
    /// Build a store over `table` restricted to the quasi-identifier `qi`
    /// (sorted internally), pre-materializing per `policy`.
    pub fn build(
        table: &'t Table,
        qi: &[usize],
        policy: MaterializationPolicy,
    ) -> Result<Self, TableError> {
        let mut sorted = qi.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut store = FreqStore {
            table,
            qi: sorted,
            store: FxHashMap::default(),
            stats: StoreStats::default(),
        };
        match policy {
            MaterializationPolicy::Lazy => {}
            MaterializationPolicy::ZeroCube => store.materialize_zero_cube()?,
            MaterializationPolicy::LeveledCube { max_groups } => {
                store.materialize_zero_cube()?;
                store.materialize_levels(max_groups)?;
            }
        }
        store.publish_gauges();
        Ok(store)
    }

    /// The store's accounting.
    pub fn stats(&self) -> &StoreStats {
        &self.stats
    }

    /// Number of materialized frequency sets.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True when nothing is materialized yet.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Total groups across all materialized sets (a memory proxy).
    pub fn total_groups(&self) -> usize {
        self.store.values().map(FrequencySet::num_groups).sum()
    }

    /// Estimated heap bytes held by the materialized sets (see
    /// [`FrequencySet::resident_bytes`]).
    pub fn resident_bytes(&self) -> u64 {
        self.store.values().map(FrequencySet::resident_bytes).sum()
    }

    /// Publish store occupancy as `core.store.*` gauges. Called after
    /// every mutation batch; a no-op while observation is disabled.
    fn publish_gauges(&self) {
        if !incognito_obs::enabled() {
            return;
        }
        incognito_obs::gauge_set("core.store.entries", self.store.len() as i64);
        incognito_obs::gauge_set("core.store.groups", self.total_groups() as i64);
        incognito_obs::gauge_set("core.store.bytes", self.resident_bytes() as i64);
    }

    fn materialize_zero_cube(&mut self) -> Result<(), TableError> {
        let n = self.qi.len();
        let full: Vec<(usize, LevelNo)> = self.qi.iter().map(|&a| (a, 0)).collect();
        let freq = self.table.frequency_set(&GroupSpec::new(full.clone())?)?;
        self.store.insert(full, freq);
        self.stats.materialized += 1;
        // Derive narrower subsets by projection, wider first.
        let full_mask = (1u32 << n) - 1;
        let mut masks: Vec<u32> = (1..full_mask).collect();
        masks.sort_by_key(|m| std::cmp::Reverse(m.count_ones()));
        for mask in masks {
            let add = (0..n as u32).find(|b| mask & (1 << b) == 0).expect("not full");
            let parent_mask = mask | (1 << add);
            let parent_key: Vec<(usize, LevelNo)> = (0..n)
                .filter(|&b| parent_mask & (1 << b) != 0)
                .map(|b| (self.qi[b], 0))
                .collect();
            let keep: Vec<usize> = (0..n)
                .filter(|&b| parent_mask & (1 << b) != 0)
                .enumerate()
                .filter(|&(_, b)| mask & (1 << b) != 0)
                .map(|(pos, _)| pos)
                .collect();
            let parent = self.store.get(&parent_key).expect("built widest-first");
            let derived = parent.project(&keep)?;
            let key: Vec<(usize, LevelNo)> = (0..n)
                .filter(|&b| mask & (1 << b) != 0)
                .map(|b| (self.qi[b], 0))
                .collect();
            self.store.insert(key, derived);
            self.stats.materialized += 1;
        }
        Ok(())
    }

    /// Roll every zero-level materialization up through all level
    /// combinations, keeping those within the group budget.
    fn materialize_levels(&mut self, max_groups: usize) -> Result<(), TableError> {
        let schema = self.table.schema().clone();
        let zero_keys: Vec<Vec<(usize, LevelNo)>> = self.store.keys().cloned().collect();
        for key in zero_keys {
            let attrs: Vec<usize> = key.iter().map(|&(a, _)| a).collect();
            let heights: Vec<LevelNo> =
                attrs.iter().map(|&a| schema.hierarchy(a).height()).collect();
            // Enumerate level vectors in mixed-radix order, skipping all-zeros.
            let mut levels = vec![0u8; attrs.len()];
            loop {
                // Advance.
                let mut i = 0;
                loop {
                    if i == attrs.len() {
                        break;
                    }
                    if levels[i] < heights[i] {
                        levels[i] += 1;
                        break;
                    }
                    levels[i] = 0;
                    i += 1;
                }
                if i == attrs.len() {
                    break; // wrapped: done
                }
                let zero = self.store.get(&key).expect("zero level present");
                let rolled = zero.rollup(&schema, &levels)?;
                if rolled.num_groups() <= max_groups {
                    let lk: Vec<(usize, LevelNo)> =
                        attrs.iter().zip(&levels).map(|(&a, &l)| (a, l)).collect();
                    self.store.insert(lk, rolled);
                    self.stats.materialized += 1;
                }
            }
        }
        Ok(())
    }

    /// Answer a frequency-set query, preferring (1) an exact
    /// materialization, (2) derivation from the best materialized ancestor,
    /// (3) a base-table scan (which is then cached).
    pub fn frequency_set(&mut self, spec: &GroupSpec) -> Result<FrequencySet, TableError> {
        spec.validate(self.table.schema())?;
        let key: Vec<(usize, LevelNo)> = spec.parts().to_vec();
        if let Some(f) = self.store.get(&key) {
            self.stats.exact_hits += 1;
            return Ok(f.clone());
        }

        // Best ancestor: a stored spec whose attrs ⊇ ours with levels ≤
        // ours on the shared attributes, minimizing group count.
        let mut best: Option<(&Vec<(usize, LevelNo)>, &FrequencySet)> = None;
        'candidates: for (ck, cf) in &self.store {
            let mut positions = Vec::with_capacity(key.len());
            for &(a, l) in &key {
                match ck.iter().position(|&(ca, cl)| ca == a && cl <= l) {
                    Some(p) => positions.push(p),
                    None => continue 'candidates,
                }
            }
            let _ = positions;
            if best.is_none_or(|(_, bf)| cf.num_groups() < bf.num_groups()) {
                best = Some((ck, cf));
            }
        }
        if let Some((ck, cf)) = best {
            // Project to our attributes (positions must be increasing: both
            // key and ck are attribute-sorted, so they are), then roll up.
            let keep: Vec<usize> = key
                .iter()
                .map(|&(a, _)| ck.iter().position(|&(ca, _)| ca == a).expect("ancestor"))
                .collect();
            let projected = cf.project(&keep)?;
            let target: Vec<LevelNo> = key.iter().map(|&(_, l)| l).collect();
            let rolled = projected.rollup(self.table.schema(), &target)?;
            self.stats.derived_hits += 1;
            return Ok(rolled);
        }

        let scanned = self.table.frequency_set(spec)?;
        self.stats.misses += 1;
        self.stats.materialized += 1;
        self.store.insert(key, scanned.clone());
        self.publish_gauges();
        Ok(scanned)
    }
}

/// Run the Incognito search answering every root frequency set from
/// `store` instead of scanning the base table — the §7 "strategic
/// materialization" variant. With a [`MaterializationPolicy::LeveledCube`]
/// store, repeated anonymizations (different k, different quasi-identifier
/// subsets of the store's QI) never rescan the table.
///
/// The store must cover the requested `qi` (i.e. `qi ⊆ store.qi`).
pub fn incognito_with_store(
    table: &Table,
    qi: &[usize],
    cfg: &crate::Config,
    store: &mut FreqStore<'_>,
) -> Result<crate::AnonymizationResult, crate::AlgoError> {
    crate::incognito::incognito_impl(
        &crate::FreqProvider::new(table, cfg),
        qi,
        cfg,
        crate::incognito::AltSource::Store(store),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::patients;

    #[test]
    fn lazy_store_caches_scans() {
        let t = patients();
        let mut store = FreqStore::build(&t, &[0, 1, 2], MaterializationPolicy::Lazy).unwrap();
        assert!(store.is_empty());
        let spec = GroupSpec::ground(&[1, 2]).unwrap();
        let a = store.frequency_set(&spec).unwrap();
        assert_eq!(store.stats().misses, 1);
        let b = store.frequency_set(&spec).unwrap();
        assert_eq!(store.stats().exact_hits, 1);
        assert_eq!(a.to_labeled_rows(t.schema()), b.to_labeled_rows(t.schema()));
    }

    #[test]
    fn zero_cube_answers_everything_without_scans() {
        let t = patients();
        let mut store = FreqStore::build(&t, &[0, 1, 2], MaterializationPolicy::ZeroCube).unwrap();
        assert_eq!(store.len(), 7); // 2³ − 1 subsets
        // Any spec over the QI is answerable without touching the table.
        for spec in [
            GroupSpec::new(vec![(0, 1), (1, 0)]).unwrap(),
            GroupSpec::new(vec![(2, 2)]).unwrap(),
            GroupSpec::new(vec![(0, 0), (1, 1), (2, 1)]).unwrap(),
        ] {
            let via_store = store.frequency_set(&spec).unwrap();
            let direct = t.frequency_set(&spec).unwrap();
            assert_eq!(
                via_store.to_labeled_rows(t.schema()),
                direct.to_labeled_rows(t.schema())
            );
        }
        assert_eq!(store.stats().misses, 0);
        assert!(store.stats().derived_hits >= 2);
    }

    #[test]
    fn leveled_cube_respects_budget_and_serves_exact_hits() {
        let t = patients();
        let mut store = FreqStore::build(
            &t,
            &[1, 2],
            MaterializationPolicy::LeveledCube { max_groups: 100 },
        )
        .unwrap();
        // ⟨Sex⟩ chain (2 levels) + ⟨Zip⟩ chain (3) + ⟨Sex, Zip⟩ grid (6):
        // 11 specs total, all within budget.
        assert_eq!(store.len(), 11);
        let spec = GroupSpec::new(vec![(1, 1), (2, 1)]).unwrap();
        let f = store.frequency_set(&spec).unwrap();
        assert_eq!(store.stats().exact_hits, 1);
        assert_eq!(f.total(), 6);
        // Tight budget stores only the small generalized sets.
        let tight = FreqStore::build(
            &t,
            &[1, 2],
            MaterializationPolicy::LeveledCube { max_groups: 2 },
        )
        .unwrap();
        assert!(tight.len() < 11);
        assert!(tight.len() >= 3); // zero cube always kept
    }

    #[test]
    fn store_backed_incognito_matches_basic() {
        let t = patients();
        let mut store =
            FreqStore::build(&t, &[0, 1, 2], MaterializationPolicy::ZeroCube).unwrap();
        for k in [1u64, 2, 3, 6] {
            let cfg = crate::Config::new(k);
            let via_store = incognito_with_store(&t, &[0, 1, 2], &cfg, &mut store).unwrap();
            let basic = crate::incognito(&t, &[0, 1, 2], &cfg).unwrap();
            assert_eq!(via_store.generalizations(), basic.generalizations(), "k={k}");
        }
        // Every root answer came from the store, never a fresh table scan.
        assert_eq!(store.stats().misses, 0);
        // The store also serves narrower quasi-identifiers.
        let narrow = incognito_with_store(&t, &[1, 2], &crate::Config::new(2), &mut store)
            .unwrap();
        assert_eq!(
            narrow.generalizations(),
            crate::incognito(&t, &[1, 2], &crate::Config::new(2)).unwrap().generalizations()
        );
        assert_eq!(store.stats().misses, 0);
    }

    #[test]
    fn leveled_store_turns_repeat_runs_into_exact_hits() {
        let t = patients();
        let mut store = FreqStore::build(
            &t,
            &[1, 2],
            MaterializationPolicy::LeveledCube { max_groups: usize::MAX },
        )
        .unwrap();
        let before = store.stats().clone();
        let _ = incognito_with_store(&t, &[1, 2], &crate::Config::new(2), &mut store).unwrap();
        let after = store.stats();
        assert_eq!(after.misses, before.misses);
        assert!(after.exact_hits > before.exact_hits);
    }

    #[test]
    fn derived_answers_match_scans_across_the_lattice() {
        let t = patients();
        let mut store = FreqStore::build(&t, &[0, 1, 2], MaterializationPolicy::ZeroCube).unwrap();
        let schema = t.schema().clone();
        for a in 0..=1u8 {
            for s in 0..=1u8 {
                for z in 0..=2u8 {
                    let spec = GroupSpec::new(vec![(0, a), (1, s), (2, z)]).unwrap();
                    assert_eq!(
                        store.frequency_set(&spec).unwrap().to_labeled_rows(&schema),
                        t.frequency_set(&spec).unwrap().to_labeled_rows(&schema),
                        "levels ({a},{s},{z})"
                    );
                }
            }
        }
        assert_eq!(store.stats().misses, 0);
    }
}
