//! The served model: the default DELRec fit, wrapped so the benchmark can
//! time the scheduler's calls into `delrec-core` from outside the program.

use delrec_bench::harness::fit_delrec;
use delrec_bench::{ExperimentContext, Scale};
use delrec_core::{DelRec, LmPreset, Recommender, TeacherKind};
use delrec_data::synthetic::DatasetProfile;
use delrec_data::ItemId;
use delrec_eval::{Ranker, ScoreRequest};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Dataset every served workload is fitted on.
pub const PROFILE: DatasetProfile = DatasetProfile::HomeKitchen;
/// Budget scale of the fit.
pub const SCALE: Scale = Scale::Smoke;
/// Teacher the soft prompts are distilled from.
pub const TEACHER: TeacherKind = TeacherKind::SASRec;

/// Durations of the scheduler's model calls, recorded while span profiling
/// is on (the traced run) and shared by every generation of a run.
#[derive(Default)]
pub struct CallLog {
    /// Wall time of each `score_candidates_batch` call, in milliseconds.
    pub score_ms: Vec<f64>,
    /// Requests in each of those calls.
    pub score_rows: Vec<f64>,
}

/// A delegating model handed to `Server::start`: every call goes straight
/// to the wrapped [`Recommender`]; with profiling on, the batched calls the
/// scheduler makes are also timed into the shared [`CallLog`] and opened as
/// spans, so the profile nests the model's own spans under them.
pub struct Timed {
    inner: Recommender,
    log: Arc<Mutex<CallLog>>,
}

impl Timed {
    /// Wrap `inner`, recording into `log`.
    pub fn new(inner: Recommender, log: Arc<Mutex<CallLog>>) -> Self {
        Timed { inner, log }
    }

    /// The wrapped pipeline, for direct (unserved) reference calls.
    pub fn inner(&self) -> &Recommender {
        &self.inner
    }
}

impl Ranker for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn score_candidates(&self, prefix: &[ItemId], candidates: &[ItemId]) -> Vec<f32> {
        self.inner.score_candidates(prefix, candidates)
    }

    fn score_candidates_batch(&self, requests: &[ScoreRequest<'_>]) -> Vec<Vec<f32>> {
        if !delrec_obs::enabled() {
            return self.inner.score_candidates_batch(requests);
        }
        let _span = delrec_obs::span!("bench.core.score_batch");
        let t = Instant::now();
        let rows = self.inner.score_candidates_batch(requests);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let mut log = self.log.lock().unwrap();
        log.score_ms.push(ms);
        log.score_rows.push(requests.len() as f64);
        rows
    }

    fn model_version(&self) -> u64 {
        self.inner.model_version()
    }
}

/// A fitted default DELRec and the context it was fitted in.
pub struct Fitted {
    /// Dataset, vocabulary pipeline and fit seed.
    pub ctx: ExperimentContext,
    /// The served pipeline (generation 0).
    pub model: Arc<Timed>,
    /// LM preset of the fit — the `DelRecConfig` default.
    pub preset: LmPreset,
    /// Call log shared by every generation.
    pub log: Arc<Mutex<CallLog>>,
}

impl Fitted {
    /// Generate the dataset, train the teacher and MiniLM, fit DELRec with
    /// the default configuration's backbone, and build the retrieval index.
    pub fn fit(fit_seed: u64) -> Self {
        let ctx = ExperimentContext::new(PROFILE, SCALE, fit_seed);
        let preset = ctx.delrec_config(TEACHER).lm;
        let rec = Recommender::new(fit_delrec(&ctx, TEACHER, preset));
        // First touch exports the item embeddings and packs the index, so
        // no timed request pays for it.
        rec.retrieve(&[], 1);
        let log = Arc::new(Mutex::new(CallLog::default()));
        let model = Arc::new(Timed::new(rec, Arc::clone(&log)));
        Fitted {
            ctx,
            model,
            preset,
            log,
        }
    }

    /// A `save → load` copy of the fitted model: parameter-equal, with every
    /// cache (weight packs, title sets, retrieval index) cold.
    pub fn reloaded_copy(&self) -> Arc<Timed> {
        let mut blob = Vec::new();
        self.model
            .inner()
            .model()
            .save(&mut blob)
            .expect("serialize fitted model");
        let mut cfg = self.ctx.delrec_config(TEACHER);
        cfg.lm = self.preset;
        let copy = DelRec::load(&self.ctx.pipeline, &cfg, &mut blob.as_slice())
            .expect("restore fitted model");
        Arc::new(Timed::new(Recommender::new(copy), Arc::clone(&self.log)))
    }
}
