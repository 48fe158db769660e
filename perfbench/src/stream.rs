//! Seeded request streams for the served workloads.
//!
//! Request `i` of a stream is a pure function of the workload seed and `i`
//! (plus the dataset, which the fixed fit seed pins), so every phase of a
//! run — the fixed-rate phase and each ladder probe — just
//! continues the index, and two runs with the same seed replay the same
//! requests byte for byte.

use delrec_data::{CandidateSampler, Dataset, ItemId, Split};

/// SplitMix64: a tiny, well-mixed, seedable generator (no dependency).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// A generator for item `i` of the stream seeded with `seed`.
    pub fn at(seed: u64, i: u64) -> Self {
        let mut r = Rng(seed ^ i.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() >> 11) % n as u64) as usize
    }

    /// A seeded permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// Which served workload a stream feeds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// A new user per request carrying a train/val prefix, scored against a
    /// fresh 15-way candidate set.
    ScoreOpen,
    /// One of a fixed population of returning users appending a 1–3 item
    /// delta, scored against a fresh 15-way candidate set.
    SessionWal,
}

/// One generated request, independent of the serving API's types.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Session key.
    pub user: u64,
    /// Interactions appended to the session before scoring.
    pub recent: Vec<ItemId>,
    /// Candidate set.
    pub candidates: Vec<ItemId>,
}

impl Request {
    /// Canonical little-endian encoding, for stream-identity checks.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.user.to_le_bytes());
        for list in [&self.recent, &self.candidates] {
            out.extend_from_slice(&(list.len() as u32).to_le_bytes());
            for id in list.iter() {
                out.extend_from_slice(&id.0.to_le_bytes());
            }
        }
    }
}

/// Returning users in the `session_wal` population.
pub const WAL_USERS: u64 = 2_000;
/// First user id handed to a new (one-request) user.
const FRESH_USER_BASE: u64 = 1 << 40;

/// A deterministic request stream.
pub struct Stream {
    shape: Shape,
    seed: u64,
    /// `(prefix, target)` pool the open-loop shapes draw from.
    pool: Vec<(Vec<ItemId>, ItemId)>,
    /// Seeded visiting order over `pool`.
    order: Vec<usize>,
    sampler: CandidateSampler,
    num_items: usize,
}

impl Stream {
    /// The stream of `shape` over `dataset`, seeded with the workload seed.
    pub fn new(shape: Shape, dataset: &Dataset, seed: u64) -> Self {
        let splits: &[Split] = match shape {
            Shape::ScoreOpen => &[Split::Train, Split::Val],
            Shape::SessionWal => &[],
        };
        let pool: Vec<(Vec<ItemId>, ItemId)> = splits
            .iter()
            .flat_map(|&s| dataset.examples(s))
            .map(|ex| (ex.prefix.clone(), ex.target))
            .collect();
        let order = Rng::new(seed ^ 0x0DE7).permutation(pool.len());
        Stream {
            shape,
            seed,
            pool,
            order,
            sampler: CandidateSampler::new(dataset.num_items(), 15),
            num_items: dataset.num_items(),
        }
    }

    /// The workload shape.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Request `i`.
    pub fn request(&self, i: usize) -> Request {
        let mut rng = Rng::at(self.seed, i as u64);
        match self.shape {
            Shape::ScoreOpen => {
                let (prefix, target) = &self.pool[self.order[i % self.pool.len()]];
                Request {
                    user: FRESH_USER_BASE + i as u64,
                    recent: prefix.clone(),
                    candidates: self.sampler.candidates(*target, self.seed, i),
                }
            }
            Shape::SessionWal => {
                let user = rng.below(WAL_USERS as usize) as u64;
                let len = 1 + rng.below(3);
                let recent = (0..len)
                    .map(|_| ItemId(rng.below(self.num_items) as u32))
                    .collect();
                let anchor = ItemId(rng.below(self.num_items) as u32);
                Request {
                    user,
                    recent,
                    candidates: self.sampler.candidates(anchor, self.seed, i),
                }
            }
        }
    }

    /// Canonical bytes of requests `0..n`.
    pub fn bytes(&self, n: usize) -> Vec<u8> {
        let mut out = Vec::new();
        for i in 0..n {
            self.request(i).encode(&mut out);
        }
        out
    }
}

/// Stream identity: the same seed replays byte-identical requests and a
/// different seed does not. Checked by every run before it measures.
pub fn check_identity(shape: Shape, dataset: &Dataset, seed: u64) -> Result<(), String> {
    const N: usize = 256;
    let a = Stream::new(shape, dataset, seed).bytes(N);
    let b = Stream::new(shape, dataset, seed).bytes(N);
    let c = Stream::new(shape, dataset, seed.wrapping_add(1)).bytes(N);
    if a != b {
        return Err(format!(
            "{shape:?}: seed {seed} replayed a different stream"
        ));
    }
    if a == c {
        return Err(format!(
            "{shape:?}: seeds {seed} and {} gave one stream",
            seed + 1
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use delrec_data::synthetic::{DatasetProfile, SyntheticConfig};

    fn dataset() -> Dataset {
        SyntheticConfig::profile(DatasetProfile::HomeKitchen)
            .scaled(0.08)
            .generate(42)
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let ds = dataset();
        for shape in [Shape::ScoreOpen, Shape::SessionWal] {
            check_identity(shape, &ds, 7).unwrap();
        }
    }

    #[test]
    fn requests_are_well_formed() {
        let ds = dataset();
        let n_items = ds.num_items();
        for shape in [Shape::ScoreOpen, Shape::SessionWal] {
            let s = Stream::new(shape, &ds, 3);
            for i in 0..500 {
                let r = s.request(i);
                assert!(r.recent.iter().all(|id| id.index() < n_items));
                assert!(r.candidates.iter().all(|id| id.index() < n_items));
                assert_eq!(r.candidates.len(), 15);
                if shape == Shape::SessionWal {
                    assert!(r.user < WAL_USERS && (1..=3).contains(&r.recent.len()));
                } else {
                    assert_eq!(r.user, FRESH_USER_BASE + i as u64);
                }
            }
        }
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut p = Rng::new(9).permutation(1000);
        p.sort_unstable();
        assert_eq!(p, (0..1000).collect::<Vec<_>>());
    }
}
