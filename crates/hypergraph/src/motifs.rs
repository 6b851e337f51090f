//! Hypergraph motifs (h-motifs) — Lee, Ko & Shin, PVLDB 2020 (the
//! paper's reference \[28\]).
//!
//! An h-motif describes the overlap pattern of three *connected* distinct
//! hyperedges `(a, b, c)` by the emptiness of the seven Venn regions
//! `a∖(b∪c), b∖(c∪a), c∖(a∪b), (a∩b)∖c, (b∩c)∖a, (c∩a)∖b, a∩b∩c`,
//! up to permutation of the three hyperedges — 26 non-degenerate classes
//! in total. The census of h-motif counts is a domain fingerprint: the
//! MARIOH paper leans on exactly this ("each domain has unique structural
//! patterns \[28\]") to justify same-domain supervision, and the census
//! gives this workspace a quantitative way to compare generated stand-ins
//! with their intended domains.

use crate::fxhash::{FxHashMap, FxHashSet};
use crate::hyperedge::Hyperedge;
use crate::hypergraph::Hypergraph;
use rand::Rng;

/// The 7-bit emptiness pattern of a hyperedge triple, canonicalised over
/// the 6 permutations of the triple. Bit layout (1 = region non-empty):
/// `0: a-only, 1: b-only, 2: c-only, 3: ab-only, 4: bc-only, 5: ca-only,
/// 6: abc`.
pub type MotifPattern = u8;

/// Census of h-motif occurrences, keyed by canonical pattern.
#[derive(Debug, Clone, Default)]
pub struct MotifCensus {
    counts: FxHashMap<MotifPattern, u64>,
    /// Number of connected triples inspected (= Σ counts).
    pub triples: u64,
    /// Whether the enumeration was truncated by the sampling budget.
    pub sampled: bool,
}

impl MotifCensus {
    /// Occurrences of one canonical pattern.
    pub fn count(&self, pattern: MotifPattern) -> u64 {
        self.counts.get(&pattern).copied().unwrap_or(0)
    }

    /// `(pattern, count)` pairs sorted by pattern — a stable fingerprint.
    pub fn sorted_counts(&self) -> Vec<(MotifPattern, u64)> {
        let mut v: Vec<(MotifPattern, u64)> = self.counts.iter().map(|(&p, &c)| (p, c)).collect();
        v.sort_unstable();
        v
    }

    /// The characteristic profile: counts normalised to sum 1, over the
    /// canonical pattern space (0 for unobserved patterns).
    pub fn profile(&self) -> Vec<(MotifPattern, f64)> {
        let total = self.triples.max(1) as f64;
        self.sorted_counts()
            .into_iter()
            .map(|(p, c)| (p, c as f64 / total))
            .collect()
    }
}

/// Computes the raw (un-canonicalised) 7-bit pattern of an ordered triple.
fn raw_pattern(a: &Hyperedge, b: &Hyperedge, c: &Hyperedge) -> u8 {
    let mut regions = [false; 7];
    let in_edge = |e: &Hyperedge, n| e.contains(n);
    for (idx, e) in [a, b, c].into_iter().enumerate() {
        for &n in e.nodes() {
            let ia = idx == 0 || in_edge(a, n);
            let ib = idx == 1 || in_edge(b, n);
            let ic = idx == 2 || in_edge(c, n);
            let region = match (ia, ib, ic) {
                (true, false, false) => 0,
                (false, true, false) => 1,
                (false, false, true) => 2,
                (true, true, false) => 3,
                (false, true, true) => 4,
                (true, false, true) => 5,
                (true, true, true) => 6,
                (false, false, false) => unreachable!("node belongs to its own edge"),
            };
            regions[region] = true;
        }
    }
    regions
        .iter()
        .enumerate()
        .fold(0u8, |acc, (i, &set)| acc | (u8::from(set) << i))
}

/// Permutes a raw pattern's bits according to a permutation of `(a,b,c)`.
fn permute_pattern(p: u8, perm: [usize; 3]) -> u8 {
    // Region indices under identity: singles [0,1,2], pairs keyed by the
    // *missing* edge: ab-only (missing c) = 3, bc-only (missing a) = 4,
    // ca-only (missing b) = 5.
    let single = |e: usize| -> u8 { (p >> e) & 1 };
    let pair_missing = [4u8, 5, 3]; // region index with edge i missing
    let pair = |missing: usize| -> u8 { (p >> pair_missing[missing]) & 1 };
    let mut out = 0u8;
    for (new_idx, &old_idx) in perm.iter().enumerate() {
        out |= single(old_idx) << new_idx;
    }
    for (new_missing, &old_missing) in perm.iter().enumerate() {
        out |= pair(old_missing) << pair_missing[new_missing];
    }
    out |= p & (1 << 6); // abc region is permutation-invariant
    out
}

/// Canonicalises a raw pattern: the minimum over all 6 permutations.
pub fn canonical_pattern(p: u8) -> MotifPattern {
    const PERMS: [[usize; 3]; 6] = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    PERMS
        .iter()
        .map(|&perm| permute_pattern(p, perm))
        .min()
        .expect("6 permutations")
}

/// Counts h-motifs over all connected triples of distinct hyperedges,
/// sampling uniformly once `budget` triples have been inspected.
///
/// Duplicate hyperedges (multiplicity > 1) count once, following the
/// h-motif definition over *distinct* hyperedges.
pub fn motif_census<R: Rng + ?Sized>(h: &Hypergraph, budget: u64, rng: &mut R) -> MotifCensus {
    let edges: Vec<&Hyperedge> = h.sorted_edges();
    let m = edges.len();
    let mut census = MotifCensus::default();
    if m < 3 {
        return census;
    }
    // Line-graph adjacency: hyperedges sharing >= 1 node.
    let mut by_node: FxHashMap<u32, Vec<usize>> = FxHashMap::default();
    for (i, e) in edges.iter().enumerate() {
        for n in e.nodes() {
            by_node.entry(n.0).or_default().push(i);
        }
    }
    let mut neighbors: Vec<FxHashSet<usize>> = vec![FxHashSet::default(); m];
    for ids in by_node.values() {
        for (x, &i) in ids.iter().enumerate() {
            for &j in &ids[x + 1..] {
                neighbors[i].insert(j);
                neighbors[j].insert(i);
            }
        }
    }
    let sorted_neighbors: Vec<Vec<usize>> = neighbors
        .iter()
        .map(|s| {
            let mut v: Vec<usize> = s.iter().copied().collect();
            v.sort_unstable();
            v
        })
        .collect();

    // Enumerate connected triples {i, j, k}: for each centre j and each
    // pair of its neighbours — covers wedges and triangles; triangles are
    // seen from up to three centres, so deduplicate triangles by counting
    // them only from their smallest member.
    let record = |i: usize, j: usize, k: usize, census: &mut MotifCensus| {
        let p = canonical_pattern(raw_pattern(edges[i], edges[j], edges[k]));
        *census.counts.entry(p).or_insert(0) += 1;
        census.triples += 1;
    };
    'outer: for (j, nbrs) in sorted_neighbors.iter().enumerate().take(m) {
        for (x, &i) in nbrs.iter().enumerate() {
            for &k in &nbrs[x + 1..] {
                let triangle = neighbors[i].contains(&k);
                if triangle && !(j < i && j < k) {
                    continue; // count triangles from their smallest member
                }
                if census.triples >= budget {
                    census.sampled = true;
                    break 'outer;
                }
                record(i, j, k, &mut census);
            }
        }
    }
    if census.sampled {
        // Top up with random connected triples so that the sampled census
        // is not biased toward low-index hyperedges.
        let extra = budget / 4;
        for _ in 0..extra {
            let j = rng.gen_range(0..m);
            let nbrs = &sorted_neighbors[j];
            if nbrs.len() < 2 {
                continue;
            }
            let a = nbrs[rng.gen_range(0..nbrs.len())];
            let b = nbrs[rng.gen_range(0..nbrs.len())];
            if a == b {
                continue;
            }
            record(a, j, b, &mut census);
        }
    }
    census
}

/// L1 distance between two censuses' characteristic profiles — a simple
/// domain-fingerprint distance in `[0, 2]`.
pub fn profile_distance(a: &MotifCensus, b: &MotifCensus) -> f64 {
    let pa: FxHashMap<MotifPattern, f64> = a.profile().into_iter().collect();
    let pb: FxHashMap<MotifPattern, f64> = b.profile().into_iter().collect();
    let keys: FxHashSet<MotifPattern> = pa.keys().chain(pb.keys()).copied().collect();
    keys.into_iter()
        .map(|k| (pa.get(&k).unwrap_or(&0.0) - pb.get(&k).unwrap_or(&0.0)).abs())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hyperedge::edge;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn raw_pattern_of_disjointish_chain() {
        // a={0,1}, b={1,2}, c={2,3}: a-only {0}, b-only ∅, c-only {3},
        // ab {1}, bc {2}, ca ∅, abc ∅.
        let a = edge(&[0, 1]);
        let b = edge(&[1, 2]);
        let c = edge(&[2, 3]);
        let p = raw_pattern(&a, &b, &c);
        assert_eq!(p & 1, 1); // a-only
        assert_eq!((p >> 1) & 1, 0); // b-only empty
        assert_eq!((p >> 2) & 1, 1); // c-only
        assert_eq!((p >> 3) & 1, 1); // ab
        assert_eq!((p >> 4) & 1, 1); // bc
        assert_eq!((p >> 5) & 1, 0); // ca empty
        assert_eq!((p >> 6) & 1, 0); // abc empty
    }

    #[test]
    fn canonical_pattern_is_permutation_invariant() {
        let edges = [edge(&[0, 1, 2]), edge(&[2, 3]), edge(&[1, 2, 4])];
        let perms = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        let reference = canonical_pattern(raw_pattern(&edges[0], &edges[1], &edges[2]));
        for perm in perms {
            let p = canonical_pattern(raw_pattern(
                &edges[perm[0]],
                &edges[perm[1]],
                &edges[perm[2]],
            ));
            assert_eq!(p, reference, "permutation {perm:?}");
        }
    }

    #[test]
    fn census_counts_one_triple_for_three_edges() {
        let mut h = Hypergraph::new(0);
        h.add_edge(edge(&[0, 1]));
        h.add_edge(edge(&[1, 2]));
        h.add_edge(edge(&[2, 3]));
        let mut rng = StdRng::seed_from_u64(0);
        let census = motif_census(&h, 1_000, &mut rng);
        assert_eq!(census.triples, 1);
        assert!(!census.sampled);
        assert_eq!(census.sorted_counts().len(), 1);
    }

    #[test]
    fn disconnected_triples_are_not_counted() {
        let mut h = Hypergraph::new(0);
        h.add_edge(edge(&[0, 1]));
        h.add_edge(edge(&[2, 3]));
        h.add_edge(edge(&[4, 5]));
        let mut rng = StdRng::seed_from_u64(0);
        let census = motif_census(&h, 1_000, &mut rng);
        assert_eq!(census.triples, 0);
    }

    #[test]
    fn triangle_of_edges_counted_once() {
        // Three pairwise-overlapping hyperedges form one line-graph
        // triangle: exactly one triple.
        let mut h = Hypergraph::new(0);
        h.add_edge(edge(&[0, 1]));
        h.add_edge(edge(&[1, 2]));
        h.add_edge(edge(&[2, 0]));
        let mut rng = StdRng::seed_from_u64(0);
        let census = motif_census(&h, 1_000, &mut rng);
        assert_eq!(census.triples, 1);
    }

    #[test]
    fn profile_sums_to_one() {
        let mut h = Hypergraph::new(0);
        for b in 0..6u32 {
            h.add_edge(edge(&[b, b + 1, b + 2]));
        }
        let mut rng = StdRng::seed_from_u64(0);
        let census = motif_census(&h, 10_000, &mut rng);
        assert!(census.triples > 0);
        let total: f64 = census.profile().iter().map(|(_, v)| v).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn profile_distance_zero_for_same_hypergraph() {
        let mut h = Hypergraph::new(0);
        for b in 0..5u32 {
            h.add_edge(edge(&[b, b + 1, b + 2]));
            h.add_edge(edge(&[b, b + 2]));
        }
        let mut rng = StdRng::seed_from_u64(0);
        let a = motif_census(&h, 10_000, &mut rng);
        let b = motif_census(&h, 10_000, &mut rng);
        assert_eq!(profile_distance(&a, &b), 0.0);
    }

    #[test]
    fn different_domains_have_different_fingerprints() {
        // Chain-structured vs star-structured hypergraphs should differ.
        let mut chain = Hypergraph::new(0);
        for b in 0..10u32 {
            chain.add_edge(edge(&[b, b + 1, b + 2]));
        }
        let mut star = Hypergraph::new(0);
        for b in 1..11u32 {
            star.add_edge(edge(&[0, b, b + 20]));
        }
        let mut rng = StdRng::seed_from_u64(0);
        let ca = motif_census(&chain, 10_000, &mut rng);
        let cb = motif_census(&star, 10_000, &mut rng);
        assert!(profile_distance(&ca, &cb) > 0.3);
    }

    #[test]
    fn budget_triggers_sampling() {
        let mut h = Hypergraph::new(0);
        for b in 0..30u32 {
            h.add_edge(edge(&[0, b + 1])); // star: many connected triples
        }
        let mut rng = StdRng::seed_from_u64(0);
        let census = motif_census(&h, 10, &mut rng);
        assert!(census.sampled);
        assert!(census.triples >= 10);
    }
}
