//! Open-loop driving of the serving runtime.
//!
//! One generator thread — the caller's — sleeps to each request's due
//! instant, submits it, and collects whatever responses are ready before
//! sleeping again, so no second client thread competes for the cores.
//! Arrivals are Poisson at the phase's offered rate (independent users), on
//! a schedule drawn from the workload seed. Latency is timed from when a
//! request was **due**: the generator's own
//! lateness (due → start of `submit`) plus the server-reported `latency`
//! (start of `submit` → response ready). A server that falls behind
//! therefore shows as latency, never as a quietly lowered offered rate.

use crate::ladder;
use crate::model::Timed;
use crate::stats::windowed_percentile;
use crate::stream::{Request, Rng, Shape, Stream};
use delrec_data::ItemId;
use delrec_eval::Ranker;
use delrec_serve::{
    MetricsSnapshot, RecRequest, ResponseHandle, ServeConfig, Server, SessionStore,
};
use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every served request's responses must arrive within this long after the
/// phase's last submission; later ones count as missing (failed).
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);
/// Correctness samples kept per phase.
const MAX_SAMPLES: usize = 64;
/// Responses per publish whose latency feeds `serve.post_publish_ms`.
const POST_PUBLISH_WINDOW: usize = 500;

/// What one served phase does.
pub struct PhaseSpec {
    /// Name in the run metadata.
    pub label: String,
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Requests to send.
    pub n: usize,
    /// Stream index of the first request.
    pub first: usize,
    /// Local request indices before which the next prepared generation is
    /// published.
    pub publish_at: Vec<usize>,
    /// Keep a seeded sample of responses for the bitwise check.
    pub sample: bool,
    /// Drop the server at the end and recover its WAL (persistent only).
    pub recover: bool,
}

impl PhaseSpec {
    /// An unchecked phase that publishes nothing: a ladder probe.
    pub fn plain(label: String, rate: f64, n: usize, first: usize) -> Self {
        PhaseSpec {
            label,
            rate,
            n,
            first,
            publish_at: Vec::new(),
            sample: false,
            recover: false,
        }
    }
}

/// A served response kept for the bitwise check against a direct call.
pub struct Sample {
    /// Generation that answered.
    pub seq: u64,
    /// Session history the server scored: the mirrored history, truncated
    /// to `max_history`.
    pub history: Vec<ItemId>,
    /// The request.
    pub req: Request,
    /// The served scores.
    pub scores: Vec<f32>,
}

/// End-of-phase session recovery (persistent phases only).
pub struct Recovery {
    /// Wall time of `SessionStore::recover`, in milliseconds.
    pub ms: f64,
    /// Sessions in the live store just before the server was dropped.
    pub sessions_before: usize,
    /// Sessions missing after recovery.
    pub lost: usize,
    /// Whether the recovered dump equals the pre-crash dump bitwise.
    pub identical: bool,
}

/// Everything one phase measured.
pub struct Phase {
    /// Name in the run metadata.
    pub label: String,
    /// Offered rate.
    pub rate: f64,
    /// Requests sent.
    pub sent: usize,
    /// Requests answered with a result.
    pub answered: usize,
    /// Requests rejected at submit, answered with an error, or never
    /// answered.
    pub failed: usize,
    /// Due → response latency per answered request, submission order (ms).
    pub latency_ms: Vec<f64>,
    /// Server-reported queue wait per answered request (ms).
    pub queue_wait_ms: Vec<f64>,
    /// Server-reported latency minus queue wait per answered request (ms).
    pub service_ms: Vec<f64>,
    /// Duration of each `submit` call (µs).
    pub submit_us: Vec<f64>,
    /// Generator lateness: due instant → start of `submit` (ms).
    pub gen_lag_ms: Vec<f64>,
    /// Wall time of each `Server::publish` (µs).
    pub publish_us: Vec<f64>,
    /// Latency of the first responses of each newly published generation.
    pub post_publish_ms: Vec<f64>,
    /// Publish sequences returned by `Server::publish`.
    pub published: Vec<u64>,
    /// Every `model_seq` a response carried.
    pub seqs_seen: BTreeSet<u64>,
    /// The server's final metrics.
    pub snapshot: MetricsSnapshot,
    /// Seeded sample of responses for the bitwise check.
    pub samples: Vec<Sample>,
    /// Wall time from the first due instant to the last answer (s).
    pub wall_s: f64,
    /// End-of-phase WAL recovery.
    pub recovery: Option<Recovery>,
}

impl Phase {
    /// Percentile `q` of the due-based latency, windowed (see
    /// [`windowed_percentile`]).
    pub fn latency(&self, q: f64) -> Result<f64, String> {
        windowed_percentile(&self.latency_ms, q).map_err(|e| format!("{}: latency {e}", self.label))
    }

    /// Whether the phase meets the `slo_rps` ladder's conditions.
    pub fn meets_slo(&self, limit_ms: f64) -> bool {
        ladder::meets_slo(&self.latency_ms, self.sent, self.failed, limit_ms)
    }
}

struct Pending {
    idx: usize,
    lag: Duration,
    submitted: Instant,
    handle: ResponseHandle,
    sample: Option<usize>,
}

/// Per-request result slots, filled as answers arrive.
#[derive(Clone, Default)]
struct Slot {
    latency_ms: Option<f64>,
    seq: u64,
}

/// One served workload's fixed ingredients.
pub struct Served<'a> {
    /// Request stream.
    pub stream: &'a Stream,
    /// Generation 0 and the prepared publish copies, in publish order.
    pub gens: Vec<Arc<Timed>>,
    /// Where persistent phases put their WAL directories.
    pub wal_root: &'a Path,
    /// Workload seed (picks the correctness sample).
    pub seed: u64,
}

impl Served<'_> {
    fn persistent(&self) -> bool {
        self.stream.shape() == Shape::SessionWal
    }

    fn wal_dir(&self, label: &str) -> PathBuf {
        self.wal_root.join(label)
    }

    /// Start a server for a phase: the default `ServeConfig`, with default
    /// persistence on a fresh directory for `session_wal`.
    pub fn start(&self, label: &str) -> Server<Timed> {
        let mut cfg = ServeConfig::default();
        if self.persistent() {
            let dir = self.wal_dir(label);
            let _ = std::fs::remove_dir_all(&dir);
            cfg = cfg.with_persistence(dir);
        }
        Server::start(Arc::clone(&self.gens[0]), cfg)
    }

    /// Drive one phase on `server` (consumed: shut down at the end).
    pub fn run(&self, server: Server<Timed>, spec: &PhaseSpec) -> Phase {
        let client = server.client();
        let max_history = server.config().max_history;
        let mut mirror: HashMap<u64, Vec<ItemId>> = HashMap::new();
        let mut slots = vec![Slot::default(); spec.n];
        let mut pending: Vec<Pending> = Vec::new();
        let mut samples: Vec<Sample> = Vec::new();
        let mut phase = Phase {
            label: spec.label.clone(),
            rate: spec.rate,
            sent: spec.n,
            answered: 0,
            failed: 0,
            latency_ms: Vec::new(),
            queue_wait_ms: Vec::new(),
            service_ms: Vec::new(),
            submit_us: Vec::with_capacity(spec.n),
            gen_lag_ms: Vec::with_capacity(spec.n),
            publish_us: Vec::new(),
            post_publish_ms: Vec::new(),
            published: Vec::new(),
            seqs_seen: BTreeSet::new(),
            snapshot: server.metrics().snapshot(),
            samples: Vec::new(),
            wall_s: 0.0,
            recovery: None,
        };
        let mut next_gen = 1;
        let t0 = Instant::now() + Duration::from_millis(2);
        let mut last_answer = t0;
        let mut offset_s = 0.0;
        for j in 0..spec.n {
            offset_s += arrival_gap_s(self.seed, spec.first + j, spec.rate);
            let due = t0 + Duration::from_secs_f64(offset_s);
            collect(
                &mut pending,
                &mut slots,
                &mut samples,
                &mut phase,
                &mut last_answer,
                Duration::ZERO,
            );
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            if spec.publish_at.contains(&j) {
                let gen = Arc::clone(&self.gens[next_gen]);
                next_gen += 1;
                let t = Instant::now();
                let seq = server.publish(gen);
                phase.publish_us.push(t.elapsed().as_secs_f64() * 1e6);
                phase.published.push(seq);
            }
            let req = self.stream.request(spec.first + j);
            let hist = mirror.entry(req.user).or_default();
            hist.extend_from_slice(&req.recent);
            if hist.len() > max_history {
                hist.drain(..hist.len() - max_history);
            }
            let sample = (spec.sample
                && samples.len() < MAX_SAMPLES
                && Rng::at(self.seed ^ 0x5A3B1E, (spec.first + j) as u64).below(16) == 0)
                .then(|| {
                    samples.push(Sample {
                        seq: u64::MAX,
                        history: hist.clone(),
                        req: req.clone(),
                        scores: Vec::new(),
                    });
                    samples.len() - 1
                });
            if self.stream.shape() != Shape::SessionWal {
                // One-request users: forget them so the mirror stays small.
                mirror.remove(&req.user);
            }
            let start = Instant::now();
            let submitted = client.submit(RecRequest {
                user_id: req.user,
                recent_items: req.recent,
                candidates: req.candidates,
                deadline: None,
            });
            phase.submit_us.push(start.elapsed().as_secs_f64() * 1e6);
            let lag = start.saturating_duration_since(due);
            phase.gen_lag_ms.push(lag.as_secs_f64() * 1e3);
            match submitted {
                Ok(handle) => pending.push(Pending {
                    idx: j,
                    lag,
                    submitted: start,
                    handle,
                    sample,
                }),
                Err(_) => phase.failed += 1,
            }
        }
        let drain_deadline = Instant::now() + DRAIN_TIMEOUT;
        while !pending.is_empty() && Instant::now() < drain_deadline {
            collect(
                &mut pending,
                &mut slots,
                &mut samples,
                &mut phase,
                &mut last_answer,
                Duration::from_millis(1),
            );
        }
        phase.failed += pending.len();
        phase.wall_s = (last_answer - t0).as_secs_f64();

        // Latency in submission order, and the first responses of each
        // published generation.
        let mut per_gen: HashMap<u64, usize> = HashMap::new();
        for slot in &slots {
            let Some(ms) = slot.latency_ms else { continue };
            phase.latency_ms.push(ms);
            if phase.published.contains(&slot.seq) {
                let seen = per_gen.entry(slot.seq).or_default();
                if *seen < POST_PUBLISH_WINDOW {
                    *seen += 1;
                    phase.post_publish_ms.push(ms);
                }
            }
        }
        phase.samples = samples.into_iter().filter(|s| s.seq != u64::MAX).collect();

        if spec.recover {
            let before = server.sessions().dump();
            phase.snapshot = server.shutdown();
            let dir = self.wal_dir(&spec.label);
            let t = Instant::now();
            let recovered = SessionStore::recover(&dir).expect("recover the session WAL");
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let after = recovered.dump();
            drop(recovered);
            phase.recovery = Some(Recovery {
                ms,
                sessions_before: before.len(),
                lost: before.len().saturating_sub(after.len()),
                identical: after == before,
            });
        } else {
            phase.snapshot = server.shutdown();
        }
        if self.persistent() {
            let _ = std::fs::remove_dir_all(self.wal_dir(&spec.label));
        }
        phase
    }

    /// Bitwise check of a phase's sampled responses against direct calls on
    /// the generation that answered, plus the generation and ledger checks.
    pub fn check(&self, phase: &Phase) -> Vec<String> {
        let mut errors = Vec::new();
        let mut gen_of: HashMap<u64, &Timed> = HashMap::from([(0, self.gens[0].as_ref())]);
        for (i, &seq) in phase.published.iter().enumerate() {
            gen_of.insert(seq, self.gens[i + 1].as_ref());
        }
        for seq in &phase.seqs_seen {
            if !gen_of.contains_key(seq) {
                errors.push(format!(
                    "{}: a response carried model_seq {seq}, which was never published",
                    phase.label
                ));
            }
        }
        for s in &phase.samples {
            let Some(model) = gen_of.get(&s.seq) else {
                continue;
            };
            let direct = model
                .inner()
                .score_candidates(&s.history, &s.req.candidates);
            if bits(&direct) != bits(&s.scores) {
                errors.push(format!(
                    "{}: user {} served an answer that differs from the direct call",
                    phase.label, s.req.user
                ));
            }
        }
        let snap = &phase.snapshot;
        if snap.completed + snap.shed_expired + snap.timed_out > snap.submitted {
            errors.push(format!(
                "{}: ledger broken: completed {} + shed {} + timed_out {} > submitted {}",
                phase.label, snap.completed, snap.shed_expired, snap.timed_out, snap.submitted
            ));
        }
        if snap.completed != phase.answered as u64 {
            errors.push(format!(
                "{}: server completed {} but the client received {}",
                phase.label, snap.completed, phase.answered
            ));
        }
        if let Some(r) = &phase.recovery {
            if !r.identical || r.lost > 0 {
                errors.push(format!(
                    "{}: recovery lost {} of {} sessions (identical dump: {})",
                    phase.label, r.lost, r.sessions_before, r.identical
                ));
            }
        }
        errors
    }
}

/// Move every ready response out of `pending`, waiting up to `timeout` for
/// the oldest one when nothing else is ready.
fn collect(
    pending: &mut Vec<Pending>,
    slots: &mut [Slot],
    samples: &mut [Sample],
    phase: &mut Phase,
    last_answer: &mut Instant,
    timeout: Duration,
) {
    let mut i = 0;
    while i < pending.len() {
        let wait = if i == 0 { timeout } else { Duration::ZERO };
        let Some(result) = pending[i].handle.wait_timeout(wait) else {
            i += 1;
            continue;
        };
        let p = pending.swap_remove(i);
        match result {
            Ok(a) => {
                let done = p.submitted + a.latency;
                *last_answer = (*last_answer).max(done);
                phase.answered += 1;
                phase.seqs_seen.insert(a.model_seq);
                phase.queue_wait_ms.push(a.queue_wait.as_secs_f64() * 1e3);
                phase
                    .service_ms
                    .push(a.latency.saturating_sub(a.queue_wait).as_secs_f64() * 1e3);
                slots[p.idx] = Slot {
                    latency_ms: Some((p.lag + a.latency).as_secs_f64() * 1e3),
                    seq: a.model_seq,
                };
                if let Some(s) = p.sample {
                    samples[s].seq = a.model_seq;
                    samples[s].scores = a.scores;
                }
            }
            Err(_) => phase.failed += 1,
        }
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Gap before arrival `i` of a Poisson stream at `rate` per second:
/// independent users, exponential gaps drawn from the workload seed and the
/// arrival's stream index.
pub fn arrival_gap_s(seed: u64, i: usize, rate: f64) -> f64 {
    let u = Rng::at(seed ^ 0xA771, i as u64).unit();
    -(1.0 - u).ln() / rate
}
