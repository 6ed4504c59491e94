//! Multi-dimension full-subgraph recoding (§5.1.3).
//!
//! The recoding function operates on the multi-attribute value
//! generalization lattice (Figure 13): it may map a value *vector* to any
//! of its (direct or implied) generalizations, but whenever it maps
//! anything to a node `⟨g₁, ..., gₙ⟩` it must map **every** vector in the
//! sub-graph rooted at that node to it. The paper's example: mapping
//! ⟨Male, 53715⟩ to ⟨Person, 5371*⟩ forces ⟨Female, 53715⟩, ⟨Male, 53710⟩,
//! and ⟨Female, 53710⟩ there too.
//!
//! A used node is identified by a level vector plus the generalized value
//! vector (its image). The greedy search keeps an index from used nodes to
//! their row counts, repeatedly raises one attribute of the smallest node
//! holding fewer than k rows, and then restores the subgraph-closure
//! invariant incrementally: a worklist holds the vectors whose level
//! vectors just rose, and each one raises every vector inside its new
//! node's subgraph to (at least) that level vector. Raises only grow level
//! vectors, and two vectors that share an image at `L` share it at every
//! `L' ≥ L`, so the worklist reaches the same least fixed point whatever
//! order it runs in.

use incognito_hierarchy::LevelNo;
use incognito_table::fxhash::FxHashMap;
use incognito_table::{Schema, Table, TableError};

use crate::release::{
    build_view_from_labels, fully_suppressed_release, subtree_sizes, AnonymizedRelease,
};

/// A used node of the multi-attribute lattice: a level vector and the
/// image of its members at those levels.
type Node = (Vec<LevelNo>, Vec<u32>);

/// Greedy multi-dimension full-subgraph recoding to k-anonymity. A table
/// with fewer than `k` rows has no k-anonymous recoding, so every row is
/// suppressed.
pub fn full_subgraph_anonymize(
    table: &Table,
    qi: &[usize],
    k: u64,
) -> Result<AnonymizedRelease, TableError> {
    let n_rows = table.num_rows();
    if (n_rows as u64) < k {
        return fully_suppressed_release(table, qi);
    }
    let schema = table.schema();
    let (vectors, vec_rows) = distinct_vectors(table, qi);
    let levels = Recoding::new(schema, qi, &vectors, &vec_rows).greedy(k);

    // Materialize.
    let sizes: Vec<Vec<Vec<usize>>> =
        qi.iter().map(|&a| subtree_sizes(schema.hierarchy(a))).collect();
    let mut precision_loss = 0.0;
    let mut lm_loss = 0.0;
    let mut qi_labels: Vec<Vec<String>> = vec![Vec::new(); n_rows];
    for (i, v) in vectors.iter().enumerate() {
        let labels: Vec<String> = qi
            .iter()
            .enumerate()
            .map(|(pos, &a)| {
                let h = schema.hierarchy(a);
                let l = levels[i][pos];
                let g = h.generalize(v[pos], l);
                h.label(l, g).to_string()
            })
            .collect();
        for &row in &vec_rows[i] {
            for (pos, &a) in qi.iter().enumerate() {
                let h = schema.hierarchy(a);
                let l = levels[i][pos];
                let g = h.generalize(v[pos], l);
                precision_loss += crate::release::precision_fraction(h, l);
                lm_loss +=
                    crate::release::lm_fraction(h, l, sizes[pos][l as usize][g as usize]);
            }
            qi_labels[row] = labels.clone();
        }
    }
    let kept: Vec<usize> = (0..n_rows).collect();
    let (view, class_sizes) = build_view_from_labels(table, qi, &kept, &qi_labels)?;
    Ok(AnonymizedRelease {
        view,
        qi: qi.to_vec(),
        suppressed: 0,
        kept_rows: kept,
        source_rows: n_rows as u64,
        class_sizes,
        precision_loss,
        lm_loss,
    })
}

/// Distinct ground QI vectors in first-occurrence order, and the rows
/// holding each.
fn distinct_vectors(table: &Table, qi: &[usize]) -> (Vec<Vec<u32>>, Vec<Vec<usize>>) {
    let mut vectors: Vec<Vec<u32>> = Vec::new();
    let mut vec_rows: Vec<Vec<usize>> = Vec::new();
    let mut index: FxHashMap<Vec<u32>, usize> = FxHashMap::default();
    for row in 0..table.num_rows() {
        let v: Vec<u32> = qi.iter().map(|&a| table.column(a)[row]).collect();
        let slot = *index.entry(v.clone()).or_insert_with(|| {
            vectors.push(v);
            vec_rows.push(Vec::new());
            vectors.len() - 1
        });
        vec_rows[slot].push(row);
    }
    (vectors, vec_rows)
}

/// The greedy search state, kept across steps.
struct Recoding<'a> {
    schema: &'a Schema,
    qi: &'a [usize],
    /// `maps[pos][l]`: the γ⁺ gather array of QI attribute `pos` to level `l`.
    maps: Vec<Vec<&'a [u32]>>,
    vectors: &'a [Vec<u32>],
    /// Rows holding each vector.
    rows: Vec<u64>,
    /// Assigned level vector of each vector.
    levels: Vec<Vec<LevelNo>>,
    /// Node index: every used node and the rows its members hold. A node
    /// leaves the index when its last member is raised out of it.
    nodes: FxHashMap<Node, u64>,
    /// Vectors raised since their new node's subgraph was last absorbed.
    worklist: Vec<usize>,
    queued: Vec<bool>,
}

impl<'a> Recoding<'a> {
    /// Every vector at the bottom of the lattice, each its own node.
    fn new(
        schema: &'a Schema,
        qi: &'a [usize],
        vectors: &'a [Vec<u32>],
        vec_rows: &[Vec<usize>],
    ) -> Self {
        let maps = qi
            .iter()
            .map(|&a| {
                let h = schema.hierarchy(a);
                (0..=h.height()).map(|l| h.map_to_level(l)).collect()
            })
            .collect();
        let rows: Vec<u64> = vec_rows.iter().map(|r| r.len() as u64).collect();
        let bottom: Vec<LevelNo> = vec![0; qi.len()];
        let nodes = vectors.iter().zip(&rows).map(|(v, &r)| ((bottom.clone(), v.clone()), r));
        Recoding {
            schema,
            qi,
            maps,
            vectors,
            nodes: nodes.collect(),
            rows,
            levels: vec![bottom; vectors.len()],
            worklist: Vec::new(),
            queued: vec![false; vectors.len()],
        }
    }

    /// Raise violating nodes until every used node holds at least `k`
    /// rows; returns the level vector of each vector.
    fn greedy(mut self, k: u64) -> Vec<Vec<LevelNo>> {
        let heights: Vec<LevelNo> =
            self.qi.iter().map(|&a| self.schema.hierarchy(a).height()).collect();
        while let Some((mut node_levels, mut anchor)) = self.violator(k) {
            // Promote the first promotable attribute with the most headroom
            // (deepest remaining chain), preferring wide domains.
            let promote_pos = (0..self.qi.len())
                .filter(|&pos| node_levels[pos] < heights[pos])
                .max_by_key(|&pos| {
                    (heights[pos] - node_levels[pos]) as usize
                        * self.schema.hierarchy(self.qi[pos]).ground_size()
                });
            let Some(pos) = promote_pos else { break };
            anchor[pos] = self.schema.hierarchy(self.qi[pos]).parent(node_levels[pos], anchor[pos]);
            node_levels[pos] += 1;
            // Subgraph closure: every vector under the raised node moves
            // up to it (absorbing members of other nodes as the model
            // requires); the worklist then settles the knock-on raises.
            self.absorb(&node_levels, &anchor);
            while let Some(i) = self.worklist.pop() {
                self.queued[i] = false;
                let ls = self.levels[i].clone();
                let img = self.image(i, &ls);
                self.absorb(&ls, &img);
            }
        }
        self.levels
    }

    /// The used node with the fewest rows below `k`, ties broken by the
    /// node itself.
    fn violator(&self, k: u64) -> Option<Node> {
        self.nodes
            .iter()
            .filter(|&(_, &rows)| rows < k)
            .min_by(|a, b| a.1.cmp(b.1).then_with(|| a.0.cmp(b.0)))
            .map(|(node, _)| node.clone())
    }

    fn image(&self, i: usize, ls: &[LevelNo]) -> Vec<u32> {
        self.vectors[i]
            .iter()
            .zip(ls)
            .zip(&self.maps)
            .map(|((&g, &l), m)| m[l as usize][g as usize])
            .collect()
    }

    /// Raise every vector in the subgraph of node `(ls, img)` to at least
    /// `ls`.
    fn absorb(&mut self, ls: &[LevelNo], img: &[u32]) {
        for i in 0..self.vectors.len() {
            let inside = self.vectors[i]
                .iter()
                .zip(ls)
                .zip(img)
                .zip(&self.maps)
                .all(|(((&g, &l), &x), m)| m[l as usize][g as usize] == x);
            if inside {
                self.raise(i, ls);
            }
        }
    }

    /// Join vector `i`'s level vector with `ls`, moving its rows between
    /// nodes in the index and queueing it if it rose.
    fn raise(&mut self, i: usize, ls: &[LevelNo]) {
        if self.levels[i].iter().zip(ls).all(|(have, want)| have >= want) {
            return;
        }
        let old: Node = (self.levels[i].clone(), self.image(i, &self.levels[i]));
        let rows = self.nodes.get_mut(&old).expect("every vector's node is indexed");
        *rows -= self.rows[i];
        if *rows == 0 {
            self.nodes.remove(&old);
        }
        let mut joined = old.0;
        for (l, &want) in joined.iter_mut().zip(ls) {
            *l = (*l).max(want);
        }
        let img = self.image(i, &joined);
        *self.nodes.entry((joined.clone(), img)).or_default() += self.rows[i];
        self.levels[i] = joined;
        if !self.queued[i] {
            self.queued[i] = true;
            self.worklist.push(i);
        }
    }
}

/// Check the full-subgraph validity of an assignment: every vector lying in
/// a used node's subgraph must be assigned exactly that node.
pub fn is_valid_full_subgraph(
    schema: &Schema,
    qi: &[usize],
    vectors: &[Vec<u32>],
    levels: &[Vec<LevelNo>],
) -> bool {
    let hierarchies: Vec<_> = qi.iter().map(|&a| schema.hierarchy(a)).collect();
    let image =
        |v: &[u32], ls: &[LevelNo], pos: usize| hierarchies[pos].generalize(v[pos], ls[pos]);
    vectors.iter().zip(levels).all(|(v, nl)| {
        vectors.iter().zip(levels).all(|(w, wl)| {
            wl == nl || (0..qi.len()).any(|pos| image(w, nl, pos) != image(v, nl, pos))
        })
    })
}

/// The greedy search as first written: regroup every vector into nodes
/// at each step and settle overlaps with an all-pairs fix-point over used
/// nodes × vectors. Kept as the reference the incremental search is
/// checked against. It differs from the original only in computing images
/// through the gather arrays and comparing them in place, instead of
/// allocating one per pair.
#[cfg(test)]
mod oracle {
    use super::*;

    /// `maps[pos][l]`: the γ⁺ gather array of QI attribute `pos` to level `l`.
    type Maps<'a> = [Vec<&'a [u32]>];

    pub(super) fn greedy_levels(
        schema: &Schema,
        qi: &[usize],
        vectors: &[Vec<u32>],
        vec_rows: &[Vec<usize>],
        k: u64,
    ) -> Vec<Vec<LevelNo>> {
        let maps: Vec<Vec<&[u32]>> = qi
            .iter()
            .map(|&a| {
                let h = schema.hierarchy(a);
                (0..=h.height()).map(|l| h.map_to_level(l)).collect()
            })
            .collect();
        let mut levels: Vec<Vec<LevelNo>> = vec![vec![0; qi.len()]; vectors.len()];
        let heights: Vec<LevelNo> = qi.iter().map(|&a| schema.hierarchy(a).height()).collect();

        loop {
            // Group vectors by their released node (levels + image).
            let mut groups: FxHashMap<(Vec<LevelNo>, Vec<u32>), Vec<usize>> =
                FxHashMap::default();
            for (i, v) in vectors.iter().enumerate() {
                let key = (levels[i].clone(), image(&maps, v, &levels[i]));
                groups.entry(key).or_default().push(i);
            }
            let violator = groups
                .iter()
                .map(|(key, members)| {
                    let size: usize = members.iter().map(|&i| vec_rows[i].len()).sum();
                    (size, key, members[0])
                })
                .filter(|(size, _, _)| (*size as u64) < k)
                .min_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(b.1)));
            let Some((_, (node_levels, _), member)) = violator else { break };

            let promote_pos = (0..qi.len())
                .filter(|&pos| node_levels[pos] < heights[pos])
                .max_by_key(|&pos| {
                    (heights[pos] - node_levels[pos]) as usize
                        * schema.hierarchy(qi[pos]).ground_size()
                });
            let Some(pos) = promote_pos else { break };
            let mut new_levels = node_levels.clone();
            new_levels[pos] += 1;
            let anchor = image(&maps, &vectors[member], &new_levels);

            for (i, v) in vectors.iter().enumerate() {
                if inside(&maps, v, &new_levels, &anchor) {
                    for (pos2, l) in levels[i].iter_mut().enumerate() {
                        *l = (*l).max(new_levels[pos2]);
                    }
                }
            }

            resolve_overlaps(&maps, vectors, &mut levels);
        }
        levels
    }

    /// Raise nodes until no used node's subgraph contains a vector
    /// assigned to a different node.
    fn resolve_overlaps(maps: &Maps, vectors: &[Vec<u32>], levels: &mut [Vec<LevelNo>]) {
        loop {
            let mut changed = false;
            let mut nodes: FxHashMap<(Vec<LevelNo>, Vec<u32>), Vec<usize>> =
                FxHashMap::default();
            for (i, v) in vectors.iter().enumerate() {
                nodes.entry((levels[i].clone(), image(maps, v, &levels[i]))).or_default().push(i);
            }
            let node_list: Vec<(Vec<LevelNo>, Vec<u32>)> = nodes.keys().cloned().collect();
            for (nl, nv) in &node_list {
                for (i, v) in vectors.iter().enumerate() {
                    if inside(maps, v, nl, nv) && &levels[i] != nl {
                        for (pos, l) in levels[i].iter_mut().enumerate() {
                            *l = (*l).max(nl[pos]);
                        }
                        changed = true;
                    }
                }
            }
            if !changed {
                return;
            }
        }
    }

    fn image(maps: &Maps, v: &[u32], ls: &[LevelNo]) -> Vec<u32> {
        maps.iter().zip(v).zip(ls).map(|((m, &g), &l)| m[l as usize][g as usize]).collect()
    }

    /// Whether `v` lies in the subgraph of node `(ls, img)`.
    fn inside(maps: &Maps, v: &[u32], ls: &[LevelNo], img: &[u32]) -> bool {
        maps.iter()
            .zip(v)
            .zip(ls)
            .zip(img)
            .all(|(((m, &g), &l), &x)| m[l as usize][g as usize] == x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incognito_data::{adults, patients, AdultsConfig};

    #[test]
    fn patients_subgraph_is_2_anonymous_and_valid() {
        let t = patients();
        let r = full_subgraph_anonymize(&t, &[1, 2], 2).unwrap();
        assert!(r.is_k_anonymous(2));
        assert_eq!(r.view.num_rows(), 6);
    }

    #[test]
    fn fewer_rows_than_k_suppresses_every_row() {
        let t = patients();
        let r = full_subgraph_anonymize(&t, &[1, 2], 10).unwrap();
        assert_eq!(r.suppressed, 6);
        assert!(r.class_sizes.is_empty());
        assert!(r.kept_rows.is_empty());
        assert_eq!(r.view.num_rows(), 0);
        assert!(r.is_k_anonymous(10));
    }

    #[test]
    fn closure_example_from_figure13() {
        // Build the ⟨Sex, Zipcode⟩ vectors of the paper's example and
        // verify the validity checker enforces the Figure 13 closure:
        // mapping ⟨Male, 53715⟩ to ⟨Person, 5371*⟩ (levels [1, 1]) without
        // moving ⟨Female, 53715⟩ is invalid.
        let t = patients();
        let schema = t.schema().clone();
        let qi = [1usize, 2];
        let male = schema.hierarchy(1).ground_id("Male").unwrap();
        let female = schema.hierarchy(1).ground_id("Female").unwrap();
        let z15 = schema.hierarchy(2).ground_id("53715").unwrap();
        let vectors = vec![vec![male, z15], vec![female, z15]];
        let bad = vec![vec![1u8, 1], vec![0u8, 0]];
        assert!(!is_valid_full_subgraph(&schema, &qi, &vectors, &bad));
        let good = vec![vec![1u8, 1], vec![1u8, 1]];
        assert!(is_valid_full_subgraph(&schema, &qi, &vectors, &good));
    }

    #[test]
    fn greedy_result_passes_the_validity_checker() {
        // About 700 greedy steps, most of them with knock-on raises.
        let t = adults(&AdultsConfig { rows: 1_000, seed: 17 });
        let qi = [0usize, 3, 4];
        let k = 15;
        let r = full_subgraph_anonymize(&t, &qi, k).unwrap();
        assert!(r.is_k_anonymous(k));
        // Reconstruct levels from released labels and validate.
        let schema = t.schema().clone();
        let mut index: FxHashMap<Vec<u32>, usize> = FxHashMap::default();
        let mut vectors: Vec<Vec<u32>> = Vec::new();
        let mut levels: Vec<Vec<LevelNo>> = Vec::new();
        for row in 0..t.num_rows() {
            let v: Vec<u32> = qi.iter().map(|&a| t.column(a)[row]).collect();
            if index.contains_key(&v) {
                continue;
            }
            let ls: Vec<LevelNo> = qi
                .iter()
                .enumerate()
                .map(|(pos, &a)| {
                    let h = schema.hierarchy(a);
                    let released = r.view.label(row, a);
                    (0..=h.height())
                        .find(|&l| h.label(l, h.generalize(v[pos], l)) == released)
                        .expect("label on ancestor chain")
                })
                .collect();
            index.insert(v.clone(), vectors.len());
            vectors.push(v);
            levels.push(ls);
        }
        assert!(is_valid_full_subgraph(&schema, &qi, &vectors, &levels));
    }

    const QIS: [&[usize]; 4] = [&[0, 3, 4], &[0, 1, 3, 4], &[0, 4, 5], &[1, 3]];

    /// Assert that the incremental search assigns every vector the level
    /// vector the all-pairs oracle does, and that the result is valid.
    fn assert_matches_oracle(rows: usize, seed: u64, qis: &[&[usize]], ks: &[u64]) {
        let t = adults(&AdultsConfig { rows, seed });
        for &qi in qis {
            let (vectors, vec_rows) = distinct_vectors(&t, qi);
            for &k in ks {
                let fast = Recoding::new(t.schema(), qi, &vectors, &vec_rows).greedy(k);
                let slow = oracle::greedy_levels(t.schema(), qi, &vectors, &vec_rows, k);
                assert_eq!(fast, slow, "{rows} rows, seed {seed}, QI {qi:?}, k = {k}");
                assert!(is_valid_full_subgraph(t.schema(), qi, &vectors, &fast));
            }
        }
    }

    #[test]
    fn incremental_search_matches_the_all_pairs_oracle() {
        // The benchmark's own input, then 20 seeded 200-row tables. The
        // oracle's cost grows with the cube of the table's distinct
        // vectors, so the larger tables live in the ignored test below.
        assert_matches_oracle(1_000, 1, &[&[0, 3, 4]], &[15]);
        for seed in 100..120 {
            assert_matches_oracle(200, seed, &QIS, &[2, 5, 15]);
        }
    }

    #[test]
    #[ignore = "about 3 minutes with the models crate optimized; run with --ignored"]
    fn incremental_search_matches_the_all_pairs_oracle_up_to_1000_rows() {
        assert_matches_oracle(1_000, 1, &QIS, &[2, 5, 15]);
        for i in 0..20 {
            assert_matches_oracle(200 + 40 * i, 100 + i as u64, &QIS, &[2, 5, 15]);
        }
    }

    #[test]
    fn multi_dim_subgraph_no_worse_than_full_domain() {
        let t = adults(&AdultsConfig { rows: 800, seed: 4 });
        let qi = [1usize, 3];
        let k = 15u64;
        let sg = full_subgraph_anonymize(&t, &qi, k).unwrap();
        assert!(sg.is_k_anonymous(k));
        let full = incognito_core::incognito(&t, &qi, &incognito_core::Config::new(k)).unwrap();
        let best_full = full
            .generalizations()
            .iter()
            .map(|g| {
                crate::release::full_domain_release(&t, &qi, &g.levels, None)
                    .unwrap()
                    .metrics(k)
                    .loss
            })
            .fold(f64::INFINITY, f64::min);
        assert!(sg.metrics(k).loss <= best_full + 1e-9);
    }
}
