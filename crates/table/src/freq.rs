//! Frequency sets and the Rollup / Subset properties.
//!
//! A frequency set (§1.1 of the paper) maps each distinct combination of
//! quasi-identifier values to its tuple count — the result of
//! `SELECT COUNT(*) ... GROUP BY Q1, ..., Qn`. The Incognito algorithms
//! manipulate frequency sets three ways:
//!
//! * [`Table::frequency_set`] computes one from the base table (a table
//!   scan);
//! * [`FrequencySet::rollup`] generalizes one to higher levels by summing
//!   counts along the dimension hierarchies (the **Rollup Property**, §3);
//! * [`FrequencySet::project`] drops attributes and re-sums (used by Cube
//!   Incognito's zero-generalization pre-computation, §3.3.2; its soundness
//!   is the **Subset Property**).

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use incognito_hierarchy::{LevelNo, ValueId};

use crate::fxhash::FxHashMap;
use crate::schema::Schema;
use crate::table::Table;
use crate::TableError;

/// Maximum number of attributes in one group key. The paper's largest
/// quasi-identifier has 9 attributes; 16 leaves headroom while keeping keys
/// inline (no heap allocation per group).
pub const MAX_KEY_ATTRS: usize = 16;

/// A grouping specification: which attributes to group by, and at which
/// generalization level each is taken. This identifies one node of a
/// multi-attribute generalization graph.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GroupSpec {
    /// `(attribute index, level)` pairs, in key-component order.
    parts: Vec<(usize, LevelNo)>,
}

impl GroupSpec {
    /// Create a spec from `(attribute, level)` pairs. Attributes must be
    /// distinct and there may be at most [`MAX_KEY_ATTRS`] of them.
    pub fn new(parts: Vec<(usize, LevelNo)>) -> Result<Self, TableError> {
        if parts.len() > MAX_KEY_ATTRS {
            return Err(TableError::KeyTooWide(parts.len()));
        }
        for (i, &(a, _)) in parts.iter().enumerate() {
            if parts[..i].iter().any(|&(b, _)| a == b) {
                return Err(TableError::IncompatibleSpec(format!(
                    "attribute {a} appears twice in group spec"
                )));
            }
        }
        Ok(GroupSpec { parts })
    }

    /// Spec over `attrs`, all at ground level.
    pub fn ground(attrs: &[usize]) -> Result<Self, TableError> {
        Self::new(attrs.iter().map(|&a| (a, 0)).collect())
    }

    /// The `(attribute, level)` parts in key order.
    pub fn parts(&self) -> &[(usize, LevelNo)] {
        &self.parts
    }

    /// Number of grouped attributes.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// True if no attributes are grouped.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// Check attribute indices and levels against `schema`.
    pub fn validate(&self, schema: &Schema) -> Result<(), TableError> {
        for &(a, l) in &self.parts {
            if a >= schema.arity() {
                return Err(TableError::AttributeOutOfRange { index: a, arity: schema.arity() });
            }
            let h = schema.hierarchy(a);
            if l > h.height() {
                return Err(TableError::LevelOutOfRange {
                    attribute: schema.attribute(a).name().to_string(),
                    level: l,
                    height: h.height(),
                });
            }
        }
        Ok(())
    }

    /// The spec this one rolls up to at `target` levels, and the
    /// `between_map` carrying each part's values there: the one check of
    /// a rollup target for every frequency-set representation. `target`
    /// holds one level per part, none below the part's current level and
    /// none above its hierarchy's height.
    pub fn rolled_up<'s>(
        &self,
        schema: &'s Schema,
        target: &[LevelNo],
    ) -> Result<(GroupSpec, Vec<&'s [ValueId]>), TableError> {
        if target.len() != self.len() {
            return Err(TableError::IncompatibleSpec(format!(
                "rollup target has {} levels, spec has {}",
                target.len(),
                self.len()
            )));
        }
        let mut maps = Vec::with_capacity(target.len());
        for (&(a, from), &to) in self.parts.iter().zip(target) {
            if to < from {
                return Err(TableError::IncompatibleSpec(format!(
                    "cannot roll attribute {a} down from level {from} to {to}"
                )));
            }
            let h = schema.hierarchy(a);
            // Memoized at hierarchy construction — an O(1) borrow per part.
            maps.push(h.between_map(from, to).map_err(|_| TableError::LevelOutOfRange {
                attribute: schema.attribute(a).name().to_string(),
                level: to,
                height: h.height(),
            })?);
        }
        let parts = self.parts.iter().zip(target).map(|(&(a, _), &l)| (a, l)).collect();
        Ok((GroupSpec { parts }, maps))
    }

    /// The spec keeping only the parts at positions `keep`, which must be
    /// strictly increasing and in range: the one check of a projection
    /// for every frequency-set representation.
    pub fn projected(&self, keep: &[usize]) -> Result<GroupSpec, TableError> {
        if keep.iter().any(|&p| p >= self.len()) || keep.windows(2).any(|w| w[0] >= w[1]) {
            return Err(TableError::IncompatibleSpec(format!(
                "projection positions must be strictly increasing and < {}",
                self.len()
            )));
        }
        Ok(GroupSpec { parts: keep.iter().map(|&p| self.parts[p]).collect() })
    }
}

/// An inline tuple of generalized value ids — one group of a frequency set.
#[derive(Debug, Clone, Copy)]
pub struct GroupKey {
    len: u8,
    vals: [ValueId; MAX_KEY_ATTRS],
}

impl Default for GroupKey {
    fn default() -> Self {
        GroupKey { len: 0, vals: [0; MAX_KEY_ATTRS] }
    }
}

impl GroupKey {
    /// Build a key from a slice of at most [`MAX_KEY_ATTRS`] ids.
    pub fn from_slice(ids: &[ValueId]) -> Self {
        assert!(ids.len() <= MAX_KEY_ATTRS, "group key too wide");
        let mut k = GroupKey::default();
        k.vals[..ids.len()].copy_from_slice(ids);
        k.len = ids.len() as u8;
        k
    }

    /// Append one component.
    ///
    /// # Panics
    /// Panics if the key is already [`MAX_KEY_ATTRS`] wide.
    #[inline]
    pub fn push(&mut self, id: ValueId) {
        assert!(
            (self.len as usize) < MAX_KEY_ATTRS,
            "GroupKey::push: key already holds MAX_KEY_ATTRS ({MAX_KEY_ATTRS}) components"
        );
        self.vals[self.len as usize] = id;
        self.len += 1;
    }

    /// Append one component, reporting overflow as [`TableError::KeyTooWide`]
    /// instead of panicking.
    #[inline]
    pub fn try_push(&mut self, id: ValueId) -> Result<(), TableError> {
        if (self.len as usize) >= MAX_KEY_ATTRS {
            return Err(TableError::KeyTooWide(self.len as usize + 1));
        }
        self.vals[self.len as usize] = id;
        self.len += 1;
        Ok(())
    }

    /// The key's components.
    #[inline]
    pub fn as_slice(&self) -> &[ValueId] {
        &self.vals[..self.len as usize]
    }
}

impl PartialEq for GroupKey {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for GroupKey {}

impl Hash for GroupKey {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Hash length + components as u64 words; cheaper than byte-slicing.
        state.write_u8(self.len);
        for &v in self.as_slice() {
            state.write_u32(v);
        }
    }
}

/// Upper bound on dense-accumulator slots: aggregate into a flat
/// `Vec<u64>` (512 KiB of counts) instead of a hash map whenever the key
/// space is at most this large. Chosen to stay comfortably inside L2 so
/// the dense kernel's random writes stay cheap.
const DENSE_MAX_SLOTS: u64 = 1 << 16;

/// Rows sampled from the head of a scan before sizing its hash map.
const SCAN_SAMPLE_ROWS: usize = 1024;

/// Mixed-radix layout over a key space with known per-position
/// cardinalities: packs a [`GroupKey`] into a single `u64` when the
/// product of cardinalities fits, and tells aggregation kernels when the
/// space is small enough for a flat dense accumulator.
struct KeySpace {
    /// Row-major strides: `strides[i]` = product of cardinalities of the
    /// positions after `i` (`strides.last() == 1`).
    strides: Vec<u64>,
    /// Total number of distinct packed keys, `None` when it overflows
    /// `u64` (packing impossible; callers fall back to hashed group keys).
    slots: Option<u64>,
}

impl KeySpace {
    /// Layout for per-position cardinalities `dims` (each ≥ 1).
    fn new(dims: &[u64]) -> KeySpace {
        let mut strides = vec![1u64; dims.len()];
        let mut slots: Option<u64> = Some(1);
        for i in (0..dims.len()).rev() {
            // A stride of 0 is unused: packing is disabled once overflowed.
            strides[i] = slots.unwrap_or(0);
            slots = slots.and_then(|s| s.checked_mul(dims[i]));
        }
        KeySpace { strides, slots }
    }

    /// Layout of the scan key space of `spec`: one dimension per part,
    /// sized by the attribute's domain at the grouped level.
    fn for_spec(schema: &Schema, spec: &GroupSpec) -> KeySpace {
        let dims: Vec<u64> =
            spec.parts.iter().map(|&(a, l)| schema.hierarchy(a).level_size(l) as u64).collect();
        KeySpace::new(&dims)
    }

    /// Whether the whole space fits a dense `Vec<u64>` accumulator.
    fn is_dense(&self) -> bool {
        self.slots.is_some_and(|s| s <= DENSE_MAX_SLOTS)
    }

    /// Whether keys pack into a single `u64`.
    fn is_packable(&self) -> bool {
        self.slots.is_some()
    }

    /// Number of dense slots.
    ///
    /// # Panics
    /// Panics if the space is not packable.
    fn len(&self) -> usize {
        self.slots.expect("dense key space") as usize
    }

    /// Invert [`GroupKey`] packing: decode a packed index back into a key.
    fn unpack(&self, mut idx: u64) -> GroupKey {
        let mut key = GroupKey::default();
        for &stride in &self.strides {
            let v = idx / stride;
            idx -= v * stride;
            key.push(v as ValueId);
        }
        key
    }

    /// Convert a dense accumulator into the hash-map representation,
    /// sized exactly to the occupied slots.
    fn gather(&self, dense: &[u64]) -> FxHashMap<GroupKey, u64> {
        let occupied = dense.iter().filter(|&&c| c != 0).count();
        let mut out: FxHashMap<GroupKey, u64> =
            FxHashMap::with_capacity_and_hasher(occupied, Default::default());
        for (idx, &c) in dense.iter().enumerate() {
            if c != 0 {
                out.insert(self.unpack(idx as u64), c);
            }
        }
        out
    }
}

/// Estimate the number of distinct groups in `nrows` rows given that the
/// first `sample` rows held `seen` distinct groups. When the sample is
/// already saturated (few distinct values) the group count has plateaued,
/// so a small headroom factor suffices; otherwise extrapolate linearly.
/// Only a sizing hint — correctness never depends on it.
fn estimate_groups(nrows: usize, seen: usize, sample: usize) -> usize {
    if sample == 0 || seen == 0 {
        return 0;
    }
    let est = if seen * 4 <= sample { seen * 2 } else { seen * (nrows / sample).max(1) };
    est.min(nrows)
}

/// Estimated heap footprint of a group-count map: capacity × bucket size
/// plus one control byte per slot (SwissTable layout). An estimate — the
/// point is comparability across kernel tiers and cache snapshots, not
/// byte-exact accounting (the tracking allocator owns that).
fn map_resident_bytes(counts: &FxHashMap<GroupKey, u64>) -> u64 {
    counts.capacity() as u64 * (std::mem::size_of::<(GroupKey, u64)>() as u64 + 1)
}

/// The frequency set of a table with respect to a [`GroupSpec`].
#[derive(Debug, Clone)]
pub struct FrequencySet {
    spec: GroupSpec,
    counts: FxHashMap<GroupKey, u64>,
    total: u64,
}

impl FrequencySet {
    /// Compute by scanning `table` (the spec must already be validated).
    /// With `threads > 1` the rows split into one contiguous range per
    /// worker thread, each worker builds a local map, and the shards are
    /// merged — the same counts, since counts add associatively. Tables
    /// under two rows per worker scan serially.
    pub(crate) fn scan(table: &Table, spec: &GroupSpec, threads: usize) -> FrequencySet {
        let nrows = table.num_rows();
        let threads = threads.clamp(1, nrows.max(1));
        let threads = if nrows < 2 * threads { 1 } else { threads };
        let mut tspan = incognito_obs::trace::span("table.scan").arg("rows", nrows as u64);
        incognito_obs::incr("table.scan.count");
        incognito_obs::add("table.scan.rows", nrows as u64);
        let schema = table.schema();
        let maps: Vec<&[ValueId]> = spec
            .parts
            .iter()
            .map(|&(a, l)| schema.hierarchy(a).map_to_level(l))
            .collect();
        let cols: Vec<&[ValueId]> = spec.parts.iter().map(|&(a, _)| table.column(a)).collect();
        let space = KeySpace::for_spec(schema, spec);
        let counts = if threads == 1 {
            Self::scan_rows(&cols, &maps, 0..nrows, &space)
        } else {
            tspan.set_arg("threads", threads as u64);
            incognito_obs::incr("table.scan.parallel");
            let chunk = nrows.div_ceil(threads);
            let mut shards: Vec<FxHashMap<GroupKey, u64>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|t| {
                        let (cols, maps, space) = (&cols, &maps, &space);
                        let rows = t * chunk..((t + 1) * chunk).min(nrows);
                        scope.spawn(move || Self::scan_rows(cols, maps, rows, space))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("scan worker panicked")).collect()
            });
            // Merge into the largest shard to minimize rehashing, reserving
            // for the worst case (all groups distinct across shards) up front.
            let biggest = (0..shards.len()).max_by_key(|&i| shards[i].len()).unwrap_or(0);
            let mut counts = shards.swap_remove(biggest);
            counts.reserve(shards.iter().map(|s| s.len()).sum());
            for shard in shards {
                for (k, c) in shard {
                    *counts.entry(k).or_insert(0) += c;
                }
            }
            counts
        };
        tspan.set_arg("groups", counts.len() as u64);
        FrequencySet { spec: spec.clone(), counts, total: nrows as u64 }
    }

    /// Aggregate one contiguous row range into a group-count map, choosing
    /// the cheapest kernel the key space allows: a flat dense array, a
    /// packed-`u64` hash map, or hashed [`GroupKey`]s. All three produce
    /// identical counts; hashed kernels pre-size themselves from a sampled
    /// group-count estimate instead of growing through rehash storms.
    fn scan_rows(
        cols: &[&[ValueId]],
        maps: &[&[ValueId]],
        rows: std::ops::Range<usize>,
        space: &KeySpace,
    ) -> FxHashMap<GroupKey, u64> {
        let nrows = rows.len();
        if space.is_packable() {
            let pack = |row: usize| -> u64 {
                let mut idx = 0u64;
                for ((col, map), &stride) in cols.iter().zip(maps).zip(&space.strides) {
                    idx += map[col[row] as usize] as u64 * stride;
                }
                idx
            };
            if space.is_dense() {
                incognito_obs::incr("table.scan.dense");
                incognito_obs::add("table.kernel.dense.slot_bytes", space.len() as u64 * 8);
                let mut dense = vec![0u64; space.len()];
                for row in rows {
                    dense[pack(row) as usize] += 1;
                }
                let counts = space.gather(&dense);
                incognito_obs::add("table.kernel.dense.groups", counts.len() as u64);
                incognito_obs::add("table.kernel.dense.bytes", map_resident_bytes(&counts));
                return counts;
            }
            incognito_obs::incr("table.scan.packed");
            let mut packed: FxHashMap<u64, u64> = FxHashMap::default();
            let sample = nrows.min(SCAN_SAMPLE_ROWS);
            for row in rows.start..rows.start + sample {
                *packed.entry(pack(row)).or_insert(0) += 1;
            }
            packed
                .reserve(estimate_groups(nrows, packed.len(), sample).saturating_sub(packed.len()));
            for row in rows.start + sample..rows.end {
                *packed.entry(pack(row)).or_insert(0) += 1;
            }
            let mut counts: FxHashMap<GroupKey, u64> =
                FxHashMap::with_capacity_and_hasher(packed.len(), Default::default());
            counts.extend(packed.into_iter().map(|(idx, c)| (space.unpack(idx), c)));
            incognito_obs::add("table.kernel.packed.groups", counts.len() as u64);
            incognito_obs::add("table.kernel.packed.bytes", map_resident_bytes(&counts));
            return counts;
        }
        let key_of = |row: usize| -> GroupKey {
            let mut key = GroupKey::default();
            for (col, map) in cols.iter().zip(maps) {
                key.push(map[col[row] as usize]);
            }
            key
        };
        let mut counts: FxHashMap<GroupKey, u64> = FxHashMap::default();
        let sample = nrows.min(SCAN_SAMPLE_ROWS);
        for row in rows.start..rows.start + sample {
            *counts.entry(key_of(row)).or_insert(0) += 1;
        }
        counts.reserve(estimate_groups(nrows, counts.len(), sample).saturating_sub(counts.len()));
        for row in rows.start + sample..rows.end {
            *counts.entry(key_of(row)).or_insert(0) += 1;
        }
        incognito_obs::add("table.kernel.hash.groups", counts.len() as u64);
        incognito_obs::add("table.kernel.hash.bytes", map_resident_bytes(&counts));
        counts
    }

    /// Assemble a frequency set from raw parts (used by the out-of-core
    /// pipeline when upgrading to the in-memory representation).
    pub(crate) fn from_parts(
        spec: GroupSpec,
        counts: FxHashMap<GroupKey, u64>,
        total: u64,
    ) -> FrequencySet {
        FrequencySet { spec, counts, total }
    }

    /// The grouping spec this frequency set was computed under.
    pub fn spec(&self) -> &GroupSpec {
        &self.spec
    }

    /// Number of distinct value groups.
    pub fn num_groups(&self) -> usize {
        self.counts.len()
    }

    /// Estimated heap bytes held by this frequency set (see
    /// [`map_resident_bytes`]) — what the core engine's cache-occupancy
    /// gauges account when this set is cached or materialized.
    pub fn resident_bytes(&self) -> u64 {
        map_resident_bytes(&self.counts)
    }

    /// Total tuple count (size of the underlying multiset).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count for `key` (0 if absent).
    pub fn count(&self, key: &GroupKey) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// Smallest group count, or `None` for an empty table.
    pub fn min_count(&self) -> Option<u64> {
        self.counts.values().copied().min()
    }

    /// Iterate `(key, count)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&GroupKey, u64)> + '_ {
        self.counts.iter().map(|(k, &c)| (k, c))
    }

    /// K-Anonymity Property (§1.1): every count ≥ k. Vacuously true for an
    /// empty relation.
    pub fn is_k_anonymous(&self, k: u64) -> bool {
        self.counts.values().all(|&c| c >= k)
    }

    /// Total number of tuples lying in groups smaller than `k` — the tuples
    /// that would have to be suppressed to make the relation k-anonymous.
    pub fn tuples_below(&self, k: u64) -> u64 {
        self.counts.values().filter(|&&c| c < k).sum()
    }

    /// K-anonymity with the tuple-suppression extension of §2.1: the
    /// relation passes if at most `max_suppress` outlier tuples (those in
    /// groups of size < k) would need to be removed.
    pub fn is_k_anonymous_with_suppression(&self, k: u64, max_suppress: u64) -> bool {
        self.tuples_below(k) <= max_suppress
    }

    /// **Rollup Property** (§3): produce the frequency set at higher levels
    /// `target` (one level per spec part, each ≥ the current level) by
    /// mapping each group through γ and summing counts — no table scan.
    pub fn rollup(&self, schema: &Schema, target: &[LevelNo]) -> Result<FrequencySet, TableError> {
        let (spec, maps) = self.spec.rolled_up(schema, target)?;
        let mut tspan = incognito_obs::trace::span("table.rollup")
            .arg("groups_in", self.counts.len() as u64);
        let dims: Vec<u64> =
            spec.parts.iter().map(|&(a, l)| schema.hierarchy(a).level_size(l) as u64).collect();
        let space = KeySpace::new(&dims);
        let counts = if space.is_dense() {
            incognito_obs::incr("table.rollup.dense");
            incognito_obs::add("table.kernel.dense.slot_bytes", space.len() as u64 * 8);
            let mut dense = vec![0u64; space.len()];
            for (key, &c) in &self.counts {
                let mut idx = 0u64;
                for ((&v, map), &stride) in key.as_slice().iter().zip(&maps).zip(&space.strides) {
                    idx += map[v as usize] as u64 * stride;
                }
                dense[idx as usize] += c;
            }
            space.gather(&dense)
        } else {
            // Output groups never outnumber input groups (γ only merges).
            let mut counts: FxHashMap<GroupKey, u64> =
                FxHashMap::with_capacity_and_hasher(self.counts.len(), Default::default());
            for (key, &c) in &self.counts {
                let mut out = GroupKey::default();
                for (&v, map) in key.as_slice().iter().zip(&maps) {
                    out.push(map[v as usize]);
                }
                *counts.entry(out).or_insert(0) += c;
            }
            counts
        };
        incognito_obs::incr("table.rollup.count");
        incognito_obs::add("table.rollup.groups_in", self.counts.len() as u64);
        incognito_obs::add("table.rollup.groups_out", counts.len() as u64);
        tspan.set_arg("groups_out", counts.len() as u64);
        Ok(FrequencySet { spec, counts, total: self.total })
    }

    /// **Subset Property** (§3): project onto the spec positions in `keep`
    /// (strictly increasing), dropping the other attributes and re-summing.
    /// Used by Cube Incognito to derive subset frequency sets from wider
    /// ones, data-cube style.
    pub fn project(&self, keep: &[usize]) -> Result<FrequencySet, TableError> {
        let spec = self.spec.projected(keep)?;
        let mut tspan = incognito_obs::trace::span("table.project")
            .arg("groups_in", self.counts.len() as u64);
        // `project` has no schema in scope, so derive the kept positions'
        // cardinalities from the data: one cheap hash-free max pass.
        let mut dims = vec![0u64; keep.len()];
        for key in self.counts.keys() {
            let slice = key.as_slice();
            for (d, &p) in dims.iter_mut().zip(keep) {
                *d = (*d).max(slice[p] as u64);
            }
        }
        for d in &mut dims {
            *d += 1;
        }
        let space = KeySpace::new(&dims);
        let counts = if space.is_dense() {
            incognito_obs::incr("table.project.dense");
            incognito_obs::add("table.kernel.dense.slot_bytes", space.len() as u64 * 8);
            let mut dense = vec![0u64; space.len()];
            for (key, &c) in &self.counts {
                let slice = key.as_slice();
                let mut idx = 0u64;
                for (&p, &stride) in keep.iter().zip(&space.strides) {
                    idx += slice[p] as u64 * stride;
                }
                dense[idx as usize] += c;
            }
            space.gather(&dense)
        } else {
            let mut counts: FxHashMap<GroupKey, u64> =
                FxHashMap::with_capacity_and_hasher(self.counts.len(), Default::default());
            for (key, &c) in &self.counts {
                let slice = key.as_slice();
                let mut out = GroupKey::default();
                for &p in keep {
                    out.push(slice[p]);
                }
                *counts.entry(out).or_insert(0) += c;
            }
            counts
        };
        incognito_obs::incr("table.project.count");
        incognito_obs::add("table.project.groups_in", self.counts.len() as u64);
        incognito_obs::add("table.project.groups_out", counts.len() as u64);
        tspan.set_arg("groups_out", counts.len() as u64);
        Ok(FrequencySet { spec, counts, total: self.total })
    }

    /// Render the groups as label tuples (for display and tests), sorted
    /// lexicographically for determinism.
    pub fn to_labeled_rows(&self, schema: &Arc<Schema>) -> Vec<(Vec<String>, u64)> {
        let mut rows: Vec<(Vec<String>, u64)> = self
            .counts
            .iter()
            .map(|(key, &c)| {
                let labels = key
                    .as_slice()
                    .iter()
                    .zip(&self.spec.parts)
                    .map(|(&v, &(a, l))| schema.hierarchy(a).label(l, v).to_string())
                    .collect();
                (labels, c)
            })
            .collect();
        rows.sort();
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Attribute, Schema};
    use incognito_hierarchy::builders;

    fn patients() -> Table {
        // Figure 1's Patients table over ⟨Birthdate, Sex, Zipcode⟩.
        let schema = Schema::new(vec![
            Attribute::new(
                "Birthdate",
                builders::suppression("Birthdate", &["1/21/76", "4/13/86", "2/28/76"]).unwrap(),
            ),
            Attribute::new("Sex", builders::suppression("Sex", &["Male", "Female"]).unwrap()),
            Attribute::new(
                "Zipcode",
                builders::round_digits("Zipcode", &["53715", "53710", "53706", "53703"], 2)
                    .unwrap(),
            ),
        ])
        .unwrap();
        let mut t = Table::empty(schema);
        for row in [
            ["1/21/76", "Male", "53715"],
            ["4/13/86", "Female", "53715"],
            ["2/28/76", "Male", "53703"],
            ["1/21/76", "Male", "53703"],
            ["4/13/86", "Female", "53706"],
            ["2/28/76", "Female", "53706"],
        ] {
            t.push_row(&row).unwrap();
        }
        t
    }

    #[test]
    fn spec_validation() {
        assert!(GroupSpec::new(vec![(0, 0), (0, 1)]).is_err()); // dup attr
        assert!(GroupSpec::new((0..17).map(|a| (a, 0)).collect()).is_err()); // too wide
        let t = patients();
        let bad_attr = GroupSpec::new(vec![(7, 0)]).unwrap();
        assert!(bad_attr.validate(t.schema()).is_err());
        let bad_level = GroupSpec::new(vec![(1, 3)]).unwrap();
        assert!(bad_level.validate(t.schema()).is_err());
    }

    #[test]
    fn group_key_semantics() {
        let a = GroupKey::from_slice(&[1, 2, 3]);
        let b = GroupKey::from_slice(&[1, 2, 3]);
        let c = GroupKey::from_slice(&[1, 2]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.as_slice(), &[1, 2, 3]);
        let mut d = GroupKey::default();
        d.push(1);
        d.push(2);
        assert_eq!(c, d);
    }

    #[test]
    #[should_panic(expected = "MAX_KEY_ATTRS")]
    fn group_key_push_panics_past_max_width() {
        let mut k = GroupKey::from_slice(&[0; MAX_KEY_ATTRS]);
        k.push(1);
    }

    #[test]
    fn group_key_try_push_reports_overflow() {
        let mut k = GroupKey::default();
        for i in 0..MAX_KEY_ATTRS as u32 {
            assert!(k.try_push(i).is_ok());
        }
        assert!(matches!(k.try_push(99), Err(TableError::KeyTooWide(_))));
        // The failed push must not have corrupted the key.
        assert_eq!(k.as_slice().len(), MAX_KEY_ATTRS);
        assert_eq!(k.as_slice()[MAX_KEY_ATTRS - 1], MAX_KEY_ATTRS as u32 - 1);
    }

    #[test]
    fn key_space_pack_roundtrip() {
        let space = KeySpace::new(&[3, 5, 2]);
        assert!(space.is_dense());
        assert_eq!(space.len(), 30);
        for idx in 0..30u64 {
            let key = space.unpack(idx);
            let mut back = 0u64;
            for (&v, &s) in key.as_slice().iter().zip(&space.strides) {
                back += v as u64 * s;
            }
            assert_eq!(back, idx);
            assert!(key.as_slice().iter().zip([3u32, 5, 2]).all(|(&v, d)| v < d));
        }
    }

    #[test]
    fn key_space_overflow_disables_packing() {
        // 5 dims of 2^13 = 2^65 > u64::MAX: no packing, no dense kernel.
        let space = KeySpace::new(&[1 << 13; 5]);
        assert!(!space.is_packable());
        assert!(!space.is_dense());
        // Just over the dense cutoff: packable but not dense.
        let space = KeySpace::new(&[DENSE_MAX_SLOTS + 1]);
        assert!(space.is_packable());
        assert!(!space.is_dense());
        // Empty key space (projection onto nothing): one slot.
        let space = KeySpace::new(&[]);
        assert!(space.is_dense());
        assert_eq!(space.len(), 1);
        assert_eq!(space.unpack(0), GroupKey::default());
    }

    /// Run `spec` over `t` through every kernel tier the key space can
    /// express — the real tier, plus the packed and hash tiers forced by
    /// forging the space's `slots` — and check each against a brute-force
    /// count. Returns the number of distinct groups.
    fn assert_tiers_agree(t: &Table, spec: &GroupSpec) -> usize {
        let schema = t.schema();
        let maps: Vec<&[ValueId]> =
            spec.parts.iter().map(|&(a, l)| schema.hierarchy(a).map_to_level(l)).collect();
        let cols: Vec<&[ValueId]> = spec.parts.iter().map(|&(a, _)| t.column(a)).collect();
        let space = KeySpace::for_spec(schema, spec);
        let nrows = t.num_rows();
        let mut expected: FxHashMap<GroupKey, u64> = FxHashMap::default();
        for row in 0..nrows {
            let mut k = GroupKey::default();
            for (col, map) in cols.iter().zip(&maps) {
                k.push(map[col[row] as usize]);
            }
            *expected.entry(k).or_insert(0) += 1;
        }
        if space.is_dense() {
            let got = FrequencySet::scan_rows(&cols, &maps, 0..nrows, &space);
            assert_eq!(got, expected, "dense kernel diverged");
        }
        if space.is_packable() {
            // Oversized slot count: still packable, never dense.
            let forced =
                KeySpace { strides: space.strides.clone(), slots: Some(DENSE_MAX_SLOTS + 1) };
            let got = FrequencySet::scan_rows(&cols, &maps, 0..nrows, &forced);
            assert_eq!(got, expected, "packed kernel diverged");
        }
        let hash_space = KeySpace { strides: space.strides.clone(), slots: None };
        let got = FrequencySet::scan_rows(&cols, &maps, 0..nrows, &hash_space);
        assert_eq!(got, expected, "hash kernel diverged");
        // The public path picks whichever tier the real space selects.
        let via_table = t.frequency_set(spec).unwrap();
        assert_eq!(via_table.num_groups(), expected.len());
        for (k, &c) in &expected {
            assert_eq!(via_table.count(k), c);
        }
        expected.len()
    }

    #[test]
    fn key_space_dense_boundary_is_exact() {
        let at = KeySpace::new(&[DENSE_MAX_SLOTS]);
        assert!(at.is_dense());
        assert_eq!(at.len() as u64, 1 << 16);
        let past = KeySpace::new(&[DENSE_MAX_SLOTS + 1]);
        assert!(past.is_packable() && !past.is_dense());
        // Mixed-radix shapes hit the same boundary: 256 × 256 is the
        // widest dense space, 256 × 257 already is not.
        assert!(KeySpace::new(&[256, 256]).is_dense());
        assert!(!KeySpace::new(&[256, 257]).is_dense());
    }

    #[test]
    fn kernel_tiers_agree_on_the_exact_boundary_space() {
        // 256 × 256 = exactly 1 << 16 slots: the widest key space the
        // dense kernel accepts.
        let labels: Vec<String> = (0..256).map(|i| format!("v{i}")).collect();
        let label_refs: Vec<&str> = labels.iter().map(String::as_str).collect();
        let schema = Schema::new(vec![
            Attribute::new("a", builders::suppression("a", &label_refs).unwrap()),
            Attribute::new("b", builders::suppression("b", &label_refs).unwrap()),
        ])
        .unwrap();
        let mut cols: Vec<Vec<u32>> = vec![Vec::new(), Vec::new()];
        for i in 0..4_000u32 {
            cols[0].push((i * 31) % 256);
            cols[1].push((i * 17 + i / 9) % 256);
        }
        let t = Table::from_columns(schema, cols).unwrap();
        let spec = GroupSpec::ground(&[0, 1]).unwrap();
        let space = KeySpace::for_spec(t.schema(), &spec);
        assert_eq!(space.slots, Some(DENSE_MAX_SLOTS));
        assert!(space.is_dense());
        assert!(assert_tiers_agree(&t, &spec) > 1_000);
    }

    #[test]
    fn packed_tier_takes_over_one_slot_past_the_dense_cutoff() {
        // A single attribute with 2^16 + 1 ground values: the smallest
        // key space the dense kernel rejects, by exactly one slot.
        let labels: Vec<String> = (0..=DENSE_MAX_SLOTS).map(|i| format!("v{i}")).collect();
        let label_refs: Vec<&str> = labels.iter().map(String::as_str).collect();
        let schema = Schema::new(vec![Attribute::new(
            "a",
            builders::suppression("a", &label_refs).unwrap(),
        )])
        .unwrap();
        let col: Vec<u32> =
            (0..3_000u32).map(|i| (i * 97) % (DENSE_MAX_SLOTS as u32 + 1)).collect();
        let t = Table::from_columns(schema, vec![col]).unwrap();
        let spec = GroupSpec::ground(&[0]).unwrap();
        let space = KeySpace::for_spec(t.schema(), &spec);
        assert_eq!(space.slots, Some(DENSE_MAX_SLOTS + 1));
        assert!(space.is_packable() && !space.is_dense());
        assert_tiers_agree(&t, &spec);
    }

    #[test]
    fn max_width_keys_agree_across_tiers_and_wider_specs_error() {
        // 16 binary attributes: a full-width GroupKey and exactly 2^16
        // slots — the dense boundary reached at MAX_KEY_ATTRS.
        let schema = Schema::new(
            (0..MAX_KEY_ATTRS)
                .map(|i| {
                    let name = format!("a{i}");
                    Attribute::new(&name, builders::suppression(&name, &["0", "1"]).unwrap())
                })
                .collect(),
        )
        .unwrap();
        let mut cols: Vec<Vec<u32>> = vec![Vec::new(); MAX_KEY_ATTRS];
        for i in 0..2_000u32 {
            for (j, col) in cols.iter_mut().enumerate() {
                col.push((i >> (j % 11)) & 1);
            }
        }
        let t = Table::from_columns(schema, cols).unwrap();
        let spec = GroupSpec::ground(&(0..MAX_KEY_ATTRS).collect::<Vec<_>>()).unwrap();
        let space = KeySpace::for_spec(t.schema(), &spec);
        assert_eq!(space.slots, Some(DENSE_MAX_SLOTS));
        assert_tiers_agree(&t, &spec);
        // One more attribute cannot form a group key at all: the same
        // overflow GroupKey::try_push reports, surfaced as KeyTooWide.
        assert!(matches!(
            GroupSpec::new((0..=MAX_KEY_ATTRS).map(|a| (a, 0)).collect()),
            Err(TableError::KeyTooWide(_))
        ));
    }

    #[test]
    fn group_estimate_is_sane() {
        assert_eq!(estimate_groups(10_000, 0, 0), 0); // empty sample
        assert_eq!(estimate_groups(10_000, 0, 100), 0);
        // Saturated sample: 10 groups in 1024 rows → plateau, small headroom.
        assert_eq!(estimate_groups(100_000, 10, 1024), 20);
        // Every sampled row distinct → extrapolate linearly, capped at rows.
        assert_eq!(estimate_groups(10_000, 1_000, 1_000), 10_000);
        assert!(estimate_groups(2_000, 1_024, 1_024) <= 2_000);
    }

    #[test]
    fn packed_scan_equals_dense_scan() {
        // A domain big enough (300^2 = 90,000 slots) to force the
        // packed-u64 hash kernel rather than the dense kernel, compared
        // against a 2-attribute projection of itself and a direct scan.
        let labels: Vec<String> = (0..300).map(|i| format!("v{i}")).collect();
        let label_refs: Vec<&str> = labels.iter().map(String::as_str).collect();
        let schema = Schema::new(vec![
            Attribute::new("a", builders::suppression("a", &label_refs).unwrap()),
            Attribute::new("b", builders::suppression("b", &label_refs).unwrap()),
        ])
        .unwrap();
        let mut cols: Vec<Vec<u32>> = vec![Vec::new(), Vec::new()];
        for i in 0..5_000u32 {
            cols[0].push((i * 7) % 300);
            cols[1].push((i * 13) % 300);
        }
        let t = Table::from_columns(schema.clone(), cols).unwrap();
        let spec = GroupSpec::ground(&[0, 1]).unwrap();
        let wide = t.frequency_set(&spec).unwrap(); // packed kernel
        assert_eq!(wide.total(), 5_000);
        // Suppressing both attributes lands in the dense kernel; totals and
        // group structure must agree with a rollup of the packed result.
        let spec_top = GroupSpec::new(vec![(0, 1), (1, 1)]).unwrap();
        let scanned_top = t.frequency_set(&spec_top).unwrap();
        let rolled_top = wide.rollup(&schema, &[1, 1]).unwrap();
        assert_eq!(
            scanned_top.to_labeled_rows(&schema),
            rolled_top.to_labeled_rows(&schema)
        );
        // Single-attribute projection (dense) vs narrow scan.
        let proj = wide.project(&[0]).unwrap();
        let narrow = t.frequency_set(&GroupSpec::ground(&[0]).unwrap()).unwrap();
        assert_eq!(proj.to_labeled_rows(&schema), narrow.to_labeled_rows(&schema));
    }

    #[test]
    fn scan_counts_match_sql_example() {
        // §1.1: GROUP BY Sex, Zipcode on Patients has groups with count < 2.
        let t = patients();
        let f = t.frequency_set(&GroupSpec::ground(&[1, 2]).unwrap()).unwrap();
        assert_eq!(f.total(), 6);
        assert_eq!(f.num_groups(), 4); // (M,53715) (F,53715) (M,53703) (F,53706)
        assert_eq!(f.min_count(), Some(1));
        assert!(!f.is_k_anonymous(2));
        assert_eq!(f.tuples_below(2), 2);
        assert!(f.is_k_anonymous_with_suppression(2, 2));
        assert!(!f.is_k_anonymous_with_suppression(2, 1));
    }

    #[test]
    fn parallel_scan_equals_serial() {
        // Build a larger table by repeating the Patients rows with varying
        // combinations so shard boundaries fall mid-group.
        let base = patients();
        let schema = base.schema().clone();
        let mut cols: Vec<Vec<u32>> = vec![Vec::new(); schema.arity()];
        for i in 0..1_000u32 {
            cols[0].push(i % 3);
            cols[1].push(i % 2);
            cols[2].push((i * 7) % 4);
        }
        let t = Table::from_columns(schema.clone(), cols).unwrap();
        for spec in [
            GroupSpec::ground(&[0, 1, 2]).unwrap(),
            GroupSpec::new(vec![(1, 1), (2, 1)]).unwrap(),
        ] {
            let serial = t.frequency_set(&spec).unwrap();
            for threads in [1usize, 2, 3, 8, 1000, 5000] {
                let par = t.frequency_set_parallel(&spec, threads).unwrap();
                assert_eq!(
                    par.to_labeled_rows(&schema),
                    serial.to_labeled_rows(&schema),
                    "threads={threads}"
                );
                assert_eq!(par.total(), serial.total());
            }
        }
        // Degenerate inputs.
        let empty = Table::empty(schema);
        let f = empty
            .frequency_set_parallel(&GroupSpec::ground(&[0]).unwrap(), 4)
            .unwrap();
        assert_eq!(f.num_groups(), 0);
    }

    #[test]
    fn rollup_equals_rescan() {
        let t = patients();
        let schema = t.schema().clone();
        let ground = t.frequency_set(&GroupSpec::ground(&[1, 2]).unwrap()).unwrap();
        // Roll up Zipcode to Z1, then compare against a fresh scan at (S0, Z1).
        let rolled = ground.rollup(&schema, &[0, 1]).unwrap();
        let scanned = t
            .frequency_set(&GroupSpec::new(vec![(1, 0), (2, 1)]).unwrap())
            .unwrap();
        assert_eq!(rolled.to_labeled_rows(&schema), scanned.to_labeled_rows(&schema));
        // Example 3.1: Patients IS 2-anonymous w.r.t. ⟨S1, Z0⟩ ...
        let s1z0 = ground.rollup(&schema, &[1, 0]).unwrap();
        assert!(s1z0.is_k_anonymous(2));
        // ... and not w.r.t. ⟨S0, Z1⟩, but IS w.r.t. ⟨S0, Z2⟩.
        let s0z1 = ground.rollup(&schema, &[0, 1]).unwrap();
        assert!(!s0z1.is_k_anonymous(2));
        let s0z2 = ground.rollup(&schema, &[0, 2]).unwrap();
        assert!(s0z2.is_k_anonymous(2));
    }

    #[test]
    fn rollup_is_transitive() {
        let t = patients();
        let schema = t.schema().clone();
        let ground = t.frequency_set(&GroupSpec::ground(&[1, 2]).unwrap()).unwrap();
        let via_mid = ground.rollup(&schema, &[0, 1]).unwrap().rollup(&schema, &[1, 2]).unwrap();
        let direct = ground.rollup(&schema, &[1, 2]).unwrap();
        assert_eq!(via_mid.to_labeled_rows(&schema), direct.to_labeled_rows(&schema));
        assert_eq!(via_mid.total(), 6);
    }

    #[test]
    fn rollup_rejects_bad_targets() {
        let t = patients();
        let schema = t.schema().clone();
        let f = t.frequency_set(&GroupSpec::new(vec![(1, 1), (2, 1)]).unwrap()).unwrap();
        assert!(f.rollup(&schema, &[0, 1]).is_err()); // downward
        assert!(f.rollup(&schema, &[1]).is_err()); // wrong arity
        assert!(f.rollup(&schema, &[1, 9]).is_err()); // above height
    }

    #[test]
    fn project_equals_narrow_scan() {
        let t = patients();
        let schema = t.schema().clone();
        let wide = t.frequency_set(&GroupSpec::ground(&[0, 1, 2]).unwrap()).unwrap();
        let proj = wide.project(&[1]).unwrap();
        let scan = t.frequency_set(&GroupSpec::ground(&[1]).unwrap()).unwrap();
        assert_eq!(proj.to_labeled_rows(&schema), scan.to_labeled_rows(&schema));
        assert_eq!(proj.total(), 6);
        // Subset Property direction: ⟨Sex⟩ is 3-anonymous here even though
        // the full QI is not.
        assert!(proj.is_k_anonymous(3));
        assert!(!wide.is_k_anonymous(2));
    }

    #[test]
    fn project_validates_positions() {
        let t = patients();
        let wide = t.frequency_set(&GroupSpec::ground(&[0, 1, 2]).unwrap()).unwrap();
        assert!(wide.project(&[1, 1]).is_err());
        assert!(wide.project(&[2, 1]).is_err());
        assert!(wide.project(&[3]).is_err());
        assert!(wide.project(&[]).is_ok()); // empty projection: one group, total count
        let empty = wide.project(&[]).unwrap();
        assert_eq!(empty.num_groups(), 1);
        assert_eq!(empty.iter().next().unwrap().1, 6);
    }
}
