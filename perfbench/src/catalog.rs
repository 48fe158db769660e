//! `catalog_scan`: offline retrieval at catalog scale.
//!
//! A fitted catalog has 144 items, where the scan is noise next to the
//! re-rank. Here one caller retrieves the top 100 of a 32,768 × 64 f32
//! index for blocks of 32 seeded histories, so the scan, the top-k select
//! and the panel GEMM take nearly all the time.
//!
//! The measured phase is a closed loop of full blocks. The `slo_rps` ladder
//! probes the same caller open loop: queries arrive as independent Poisson
//! arrivals and the caller retrieves every query already due, up to one
//! block, per call — the serving runtime's batching, done by the caller.

use crate::reference::{recall_at_100, Reference};
use crate::served::arrival_gap_s;
use crate::stream::Rng;
use delrec_bench::harness::CatalogWorkload;
use delrec_data::ItemId;
use delrec_retrieval::{IndexFormat, Retriever};
use std::time::{Duration, Instant};

/// Items in the synthetic catalog.
pub const N_ITEMS: usize = 32_768;
/// Embedding dimension.
pub const DIM: usize = 64;
/// Queries per `retrieve_batch` call.
pub const BLOCK: usize = 32;
/// Candidates retrieved per query.
pub const DEPTH: usize = 100;
/// Seeded histories the closed loop cycles through.
const N_QUERIES: usize = 4_096;
/// Histories the correctness and quality checks use.
const SAMPLE: usize = 64;

/// The catalog, its index, and the seeded query histories.
pub struct Catalog {
    work: CatalogWorkload,
    retriever: Retriever,
    seed: u64,
}

/// One closed-loop pass.
pub struct ClosedLoop {
    /// Wall time of each `retrieve_batch` call (ms).
    pub call_ms: Vec<f64>,
    /// Queries retrieved.
    pub queries: usize,
    /// Rows that came back with the wrong length.
    pub failed: usize,
    /// Wall time of the whole pass (s).
    pub wall_s: f64,
}

/// One open-loop probe.
pub struct OpenLoop {
    /// Due → result latency per query, in arrival order (ms).
    pub latency_ms: Vec<f64>,
    /// Queries sent.
    pub sent: usize,
    /// Queries whose row came back with the wrong length.
    pub failed: usize,
    /// `retrieve_batch` calls made.
    pub calls: usize,
}

impl Catalog {
    /// Generate the catalog and build its index.
    pub fn build(seed: u64) -> Self {
        let work = CatalogWorkload::build(N_ITEMS, DIM, N_QUERIES, seed);
        let retriever = Retriever::build(work.embeddings.clone(), DIM, 0, IndexFormat::F32);
        Catalog {
            work,
            retriever,
            seed,
        }
    }

    /// The index.
    pub fn retriever(&self) -> &Retriever {
        &self.retriever
    }

    fn block(&self, b: usize) -> Vec<&[ItemId]> {
        let start = (b * BLOCK) % N_QUERIES;
        self.work.histories[start..start + BLOCK]
            .iter()
            .map(|h| h.as_slice())
            .collect()
    }

    /// Call `retrieve_batch` back to back for `seconds`.
    pub fn closed_loop(&self, seconds: f64) -> ClosedLoop {
        let budget = Duration::from_secs_f64(seconds);
        let t0 = Instant::now();
        let mut out = ClosedLoop {
            call_ms: Vec::new(),
            queries: 0,
            failed: 0,
            wall_s: 0.0,
        };
        let mut b = 0;
        while t0.elapsed() < budget {
            let histories = self.block(b);
            let _span = delrec_obs::span!("bench.retrieval.call");
            let t = Instant::now();
            let rows = self.retriever.retrieve_batch(&histories, DEPTH);
            out.call_ms.push(t.elapsed().as_secs_f64() * 1e3);
            out.queries += histories.len();
            out.failed += rows.iter().filter(|r| r.len() != DEPTH).count();
            b += 1;
        }
        out.wall_s = t0.elapsed().as_secs_f64();
        out
    }

    /// Queries `first..first + n` arriving open loop at `rate` per second
    /// (Poisson, from the catalog seed), each timed from its due instant.
    pub fn open_loop(&self, rate: f64, n: usize, first: usize) -> OpenLoop {
        let mut offset_s = 0.0;
        let due: Vec<Duration> = (0..n)
            .map(|j| {
                offset_s += arrival_gap_s(self.seed, first + j, rate);
                Duration::from_secs_f64(offset_s)
            })
            .collect();
        let mut out = OpenLoop {
            latency_ms: Vec::with_capacity(n),
            sent: n,
            failed: 0,
            calls: 0,
        };
        let t0 = Instant::now() + Duration::from_millis(2);
        let mut next = 0;
        while next < n {
            if let Some(wait) = (t0 + due[next]).checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let now = Instant::now();
            let mut end = next + 1;
            while end < n && end - next < BLOCK && t0 + due[end] <= now {
                end += 1;
            }
            let histories: Vec<&[ItemId]> = (first + next..first + end)
                .map(|i| self.work.histories[i % N_QUERIES].as_slice())
                .collect();
            let rows = self.retriever.retrieve_batch(&histories, DEPTH);
            let done = Instant::now();
            out.calls += 1;
            out.failed += rows.iter().filter(|r| r.len() != DEPTH).count();
            for d in &due[next..end] {
                out.latency_ms
                    .push(done.saturating_duration_since(t0 + *d).as_secs_f64() * 1e3);
            }
            next = end;
        }
        out
    }

    /// A seeded sample of whole blocks of histories.
    fn sample(&self) -> Vec<&[ItemId]> {
        let mut rng = Rng::new(self.seed ^ 0xCA7A);
        (0..SAMPLE / BLOCK)
            .flat_map(|_| self.block(rng.below(N_QUERIES / BLOCK)))
            .collect()
    }

    /// Batched rows must equal single-query `retrieve` bitwise.
    pub fn check(&self) -> Vec<String> {
        let sample = self.sample();
        let mut errors = Vec::new();
        for block in sample.chunks(BLOCK) {
            let batched = self.retriever.retrieve_batch(block, DEPTH);
            for (h, row) in block.iter().zip(&batched) {
                let single = self.retriever.retrieve(h, DEPTH);
                let same = single.len() == row.len()
                    && single
                        .iter()
                        .zip(row)
                        .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits());
                if !same {
                    errors.push("catalog_scan: a batched row differs from retrieve()".into());
                }
            }
        }
        errors
    }

    /// `recall_at_100` against the brute-force reference on the sample.
    pub fn recall_at_100(&self) -> f64 {
        let sample = self.sample();
        let reference = Reference::new(&self.work.embeddings, DIM);
        let got: Vec<Vec<ItemId>> = self
            .retriever
            .retrieve_batch(&sample, DEPTH)
            .into_iter()
            .map(|row| row.into_iter().map(|(id, _)| id).collect())
            .collect();
        recall_at_100(&reference, &sample, &got)
    }

    /// Share of sampled histories whose top-1 changes when the history is
    /// shuffled with a seeded permutation.
    pub fn order_sensitivity(&self) -> f64 {
        let sample = self.sample();
        let changed = sample
            .iter()
            .enumerate()
            .filter(|(i, h)| {
                let perm = Rng::at(self.seed ^ 0x0DE5, *i as u64).permutation(h.len());
                let shuffled: Vec<ItemId> = perm.iter().map(|&p| h[p]).collect();
                self.retriever.retrieve(h, 1)[0].0 != self.retriever.retrieve(&shuffled, 1)[0].0
            })
            .count();
        changed as f64 / sample.len() as f64
    }
}
