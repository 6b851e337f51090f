//! Job specifications: parsing, validation, persistence encoding, and
//! the canonical content hash.
//!
//! A [`JobSpec`] describes one reconstruction: its input (a registry
//! dataset or an uploaded edge list), the MARIOH variant, a seed, an
//! optional reused model, and hyperparameter overrides that are validated
//! through the same `Pipeline::builder` every other frontend uses.
//!
//! Two encodings, deliberately distinct:
//!
//! * [`JobSpec::to_json`] is the **faithful** form — it round-trips
//!   through [`JobSpec::from_json`] and is what the durable job store
//!   writes to its record log so interrupted jobs can be re-queued after
//!   a restart.
//! * [`JobSpec::canonical`] is the **semantic** form — the variant is
//!   collapsed into its effective configuration, omitted parameters are
//!   materialised to their defaults, and non-semantic knobs (`threads`,
//!   `throttle_ms`) are dropped, so two specs hash equal **iff** they
//!   describe the same computation. [`JobSpec::content_hash`] is SHA-256
//!   over those bytes and keys the result/model cache.

use crate::hash::SpecHash;
use crate::json::Json;
use marioh_core::{MariohError, Pipeline, PipelineBuilder, Variant};
use marioh_datasets::PaperDataset;
use marioh_hypergraph::{io as hio, Hypergraph};
use std::sync::Arc;

/// Cap on the per-job [`JobSpec::throttle_ms`] pacing knob.
pub const MAX_THROTTLE_MS: u64 = 60_000;

/// Cap on the per-job [`JobSpec::timeout_secs`] deadline (one day).
pub const MAX_TIMEOUT_SECS: u64 = 86_400;

/// Cap on the node universe (largest node id + 1) of an uploaded edge
/// list. A reconstruction allocates per-node state for the whole
/// universe, so one large id in a tiny upload would ask for gigabytes;
/// the cap is 43x the largest registry universe (DBLP at scale 1).
pub const MAX_UPLOAD_NODES: u32 = 1 << 24;

/// Version tag embedded in the canonical encoding; bump it if the
/// canonical field set ever changes meaning (old cached artifacts then
/// stop matching instead of matching wrongly).
pub const CANONICAL_FORMAT_VERSION: u32 = 1;

/// What a job reconstructs.
#[derive(Debug, Clone)]
pub enum JobInput {
    /// A registry dataset, generated at its fixed per-dataset seed.
    Dataset {
        /// Which calibrated dataset to generate.
        dataset: PaperDataset,
        /// Generation scale (`None` = the dataset's default scale).
        scale: Option<f64>,
    },
    /// An uploaded hypergraph, parsed from the text edge-list format of
    /// [`marioh_hypergraph::io`] at submission time.
    Edges(Hypergraph),
}

/// A reference to an already-trained model a job reuses instead of
/// training its own classifier (the paper's Table V transfer setting).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelRef {
    /// The model trained by an earlier job, looked up through that job's
    /// spec hash in the artifact store.
    Job(u64),
    /// A named model saved through `marioh model import` (or a future
    /// `PUT /models/:name`).
    Named(String),
}

/// Characters allowed in a saved-model name (it becomes a file name in
/// the disk store, so the set is deliberately narrow).
pub fn validate_model_name(name: &str) -> Result<(), String> {
    let ok = !name.is_empty()
        && name.len() <= 64
        && !name.starts_with('.')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'));
    if ok {
        Ok(())
    } else {
        Err(format!(
            "invalid model name {name:?}: use 1-64 characters from [A-Za-z0-9._-], not starting with '.'"
        ))
    }
}

impl ModelRef {
    /// Parses the `"model"` parameter: `"job:<id>"` or a saved-model
    /// name.
    pub fn parse(value: &str) -> Result<ModelRef, String> {
        if let Some(id) = value.strip_prefix("job:") {
            let id: u64 = id
                .parse()
                .map_err(|_| format!("invalid job reference {value:?}: expected \"job:<id>\""))?;
            return Ok(ModelRef::Job(id));
        }
        validate_model_name(value)?;
        Ok(ModelRef::Named(value.to_owned()))
    }

    /// The wire form accepted by [`ModelRef::parse`].
    pub fn to_param(&self) -> String {
        match self {
            ModelRef::Job(id) => format!("job:{id}"),
            ModelRef::Named(name) => name.clone(),
        }
    }

    /// The unambiguous form used inside the canonical encoding.
    fn canonical(&self) -> String {
        match self {
            ModelRef::Job(id) => format!("job:{id}"),
            ModelRef::Named(name) => format!("name:{name}"),
        }
    }
}

/// Hyperparameter overrides; `None` keeps the builder's default.
#[derive(Debug, Clone, Default)]
pub struct JobParams {
    /// Initial classification threshold `θ_init`.
    pub theta_init: Option<f64>,
    /// Negative-prediction processing ratio `r` in percent.
    pub neg_ratio: Option<f64>,
    /// Threshold adjust ratio `α`.
    pub alpha: Option<f64>,
    /// Worker threads inside one reconstruction.
    pub threads: Option<usize>,
    /// Outer-loop round cap.
    pub max_iterations: Option<usize>,
    /// Fraction of source hyperedges used as supervision.
    pub supervision_fraction: Option<f64>,
    /// Negatives sampled per positive during training.
    pub negative_ratio: Option<f64>,
    /// Toggles the provable filtering step.
    pub filtering: Option<bool>,
    /// Toggles Phase 2 of the bidirectional search.
    pub bidirectional: Option<bool>,
}

/// One reconstruction job as accepted by `POST /jobs`.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The input hypergraph source.
    pub input: JobInput,
    /// The MARIOH variant to run.
    pub variant: Variant,
    /// Seed driving the split/train/reconstruct RNG.
    pub seed: u64,
    /// Pacing knob for load tests and demos: the worker sleeps this many
    /// milliseconds (cancellable) before starting, and again after each
    /// search round, so tiny jobs occupy workers for an observable time.
    /// Non-semantic: excluded from [`JobSpec::content_hash`].
    pub throttle_ms: u64,
    /// Per-job deadline in seconds: a job still running this long after
    /// dispatch is cancelled and recorded failed with a timeout reason.
    /// `0` — the default — defers to the server-wide
    /// `marioh serve --job-timeout` default (itself unlimited when
    /// unset). Non-semantic: excluded from [`JobSpec::content_hash`].
    pub timeout_secs: u64,
    /// An already-trained model to reuse instead of training.
    pub model: Option<ModelRef>,
    /// Hyperparameter overrides.
    pub params: JobParams,
}

fn expect_num(key: &str, v: &Json) -> Result<f64, String> {
    v.as_f64()
        .ok_or_else(|| format!("hyperparameter {key:?} must be a number"))
}

fn expect_uint(key: &str, v: &Json) -> Result<u64, String> {
    v.as_u64()
        .ok_or_else(|| format!("hyperparameter {key:?} must be a non-negative integer"))
}

fn expect_bool(key: &str, v: &Json) -> Result<bool, String> {
    v.as_bool()
        .ok_or_else(|| format!("hyperparameter {key:?} must be a boolean"))
}

fn check_unique(kind: &str, pairs: &[(String, Json)]) -> Result<(), String> {
    for (i, (key, _)) in pairs.iter().enumerate() {
        if pairs[..i].iter().any(|(k, _)| k == key) {
            return Err(format!("duplicate {kind} {key:?}"));
        }
    }
    Ok(())
}

/// Resolves a method name (`"MARIOH"`, `"marioh-f"`, …) to its variant.
pub fn variant_by_name(name: &str) -> Option<Variant> {
    Variant::all()
        .into_iter()
        .find(|v| v.name().eq_ignore_ascii_case(name))
        .or((name.eq_ignore_ascii_case("full")).then_some(Variant::Full))
}

impl JobParams {
    /// Parses the `"params"` object, rejecting duplicate and unknown
    /// hyperparameters. Values are range-checked later by
    /// [`JobSpec::validate`], so invalid domains carry the pipeline
    /// builder's own message.
    pub fn from_json(v: &Json) -> Result<JobParams, String> {
        let pairs = v
            .as_object()
            .ok_or_else(|| "\"params\" must be an object".to_owned())?;
        check_unique("hyperparameter", pairs)?;
        let mut params = JobParams::default();
        for (key, value) in pairs {
            match key.as_str() {
                "theta_init" => params.theta_init = Some(expect_num(key, value)?),
                "neg_ratio" => params.neg_ratio = Some(expect_num(key, value)?),
                "alpha" => params.alpha = Some(expect_num(key, value)?),
                "threads" => params.threads = Some(expect_uint(key, value)? as usize),
                "max_iterations" => params.max_iterations = Some(expect_uint(key, value)? as usize),
                "supervision_fraction" => {
                    params.supervision_fraction = Some(expect_num(key, value)?)
                }
                "negative_ratio" => params.negative_ratio = Some(expect_num(key, value)?),
                "filtering" => params.filtering = Some(expect_bool(key, value)?),
                "bidirectional" => params.bidirectional = Some(expect_bool(key, value)?),
                other => {
                    return Err(format!(
                        "unknown hyperparameter {other:?}; known: theta_init, neg_ratio, alpha, \
                         threads, max_iterations, supervision_fraction, negative_ratio, \
                         filtering, bidirectional"
                    ))
                }
            }
        }
        Ok(params)
    }

    /// The set overrides as a JSON object (inverse of
    /// [`JobParams::from_json`]).
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(String, Json)> = Vec::new();
        let num = |key: &str, v: Option<f64>, pairs: &mut Vec<(String, Json)>| {
            if let Some(v) = v {
                pairs.push((key.to_owned(), Json::num(v)));
            }
        };
        num("theta_init", self.theta_init, &mut pairs);
        num("neg_ratio", self.neg_ratio, &mut pairs);
        num("alpha", self.alpha, &mut pairs);
        if let Some(v) = self.threads {
            pairs.push(("threads".to_owned(), Json::num(v as f64)));
        }
        if let Some(v) = self.max_iterations {
            pairs.push(("max_iterations".to_owned(), Json::num(v as f64)));
        }
        num(
            "supervision_fraction",
            self.supervision_fraction,
            &mut pairs,
        );
        num("negative_ratio", self.negative_ratio, &mut pairs);
        if let Some(v) = self.filtering {
            pairs.push(("filtering".to_owned(), Json::Bool(v)));
        }
        if let Some(v) = self.bidirectional {
            pairs.push(("bidirectional".to_owned(), Json::Bool(v)));
        }
        Json::Obj(pairs)
    }
}

impl JobSpec {
    /// Parses a `POST /jobs` body. Every message this returns is the 400
    /// response body; hyperparameter *domain* errors are deferred to
    /// [`JobSpec::validate`] so they carry the builder's wording.
    pub fn from_json(body: &Json) -> Result<JobSpec, String> {
        let pairs = body
            .as_object()
            .ok_or_else(|| "request body must be a JSON object".to_owned())?;
        check_unique("field", pairs)?;

        let mut dataset: Option<PaperDataset> = None;
        let mut scale: Option<f64> = None;
        let mut edges: Option<Hypergraph> = None;
        let mut variant = Variant::Full;
        let mut seed = 0u64;
        let mut throttle_ms = 0u64;
        let mut timeout_secs = 0u64;
        let mut model: Option<ModelRef> = None;
        let mut params = JobParams::default();
        for (key, value) in pairs {
            match key.as_str() {
                "dataset" => {
                    let name = value
                        .as_str()
                        .ok_or_else(|| "\"dataset\" must be a string".to_owned())?;
                    dataset = Some(PaperDataset::resolve(name)?);
                }
                "scale" => {
                    let v = value
                        .as_f64()
                        .filter(|v| *v > 0.0)
                        .ok_or_else(|| "\"scale\" must be a positive number".to_owned())?;
                    scale = Some(v);
                }
                "edges" => {
                    let text = value
                        .as_str()
                        .ok_or_else(|| "\"edges\" must be a string in the hypergraph text format (one `<multiplicity> <node> <node> [...]` record per line)".to_owned())?;
                    let h = hio::read_hypergraph(text.as_bytes())
                        .map_err(|e| format!("invalid edge list: {e}"))?;
                    edges = Some(h);
                }
                "method" => {
                    let name = value
                        .as_str()
                        .ok_or_else(|| "\"method\" must be a string".to_owned())?;
                    variant = variant_by_name(name).ok_or_else(|| {
                        format!(
                            "unknown method {name:?}; known: {}",
                            Variant::all().map(|v| v.name()).join(", ")
                        )
                    })?;
                }
                "seed" => {
                    seed = value
                        .as_u64()
                        .ok_or_else(|| "\"seed\" must be a non-negative integer".to_owned())?;
                }
                "throttle_ms" => {
                    throttle_ms = value
                        .as_u64()
                        .filter(|v| *v <= MAX_THROTTLE_MS)
                        .ok_or_else(|| {
                            format!("\"throttle_ms\" must be an integer in [0, {MAX_THROTTLE_MS}]")
                        })?;
                }
                "timeout_secs" => {
                    timeout_secs = value
                        .as_u64()
                        .filter(|v| *v <= MAX_TIMEOUT_SECS)
                        .ok_or_else(|| {
                            format!(
                                "\"timeout_secs\" must be an integer in [0, {MAX_TIMEOUT_SECS}]"
                            )
                        })?;
                }
                "model" => {
                    let text = value.as_str().ok_or_else(|| {
                        "\"model\" must be a string: \"job:<id>\" or a saved model name".to_owned()
                    })?;
                    model = Some(ModelRef::parse(text)?);
                }
                "params" => params = JobParams::from_json(value)?,
                other => {
                    return Err(format!(
                        "unknown field {other:?}; known: dataset, scale, edges, method, seed, \
                         throttle_ms, timeout_secs, model, params"
                    ))
                }
            }
        }

        let input = match (dataset, edges) {
            (Some(dataset), None) => JobInput::Dataset { dataset, scale },
            (None, Some(h)) => JobInput::Edges(h),
            (Some(_), Some(_)) => {
                return Err("provide either \"dataset\" or \"edges\", not both".to_owned())
            }
            (None, None) => return Err("provide \"dataset\" or \"edges\"".to_owned()),
        };
        if scale.is_some() && matches!(input, JobInput::Edges(_)) {
            return Err("\"scale\" only applies to registry datasets".to_owned());
        }
        Ok(JobSpec {
            input,
            variant,
            seed,
            throttle_ms,
            timeout_secs,
            model,
            params,
        })
    }

    /// The faithful JSON form: re-parseable through
    /// [`JobSpec::from_json`], used by the durable store's record log.
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(String, Json)> = Vec::new();
        match &self.input {
            JobInput::Dataset { dataset, scale } => {
                pairs.push(("dataset".to_owned(), Json::str(dataset.name())));
                if let Some(s) = scale {
                    pairs.push(("scale".to_owned(), Json::num(*s)));
                }
            }
            JobInput::Edges(h) => {
                pairs.push(("edges".to_owned(), Json::str(edges_text(h))));
            }
        }
        pairs.push(("method".to_owned(), Json::str(self.variant.name())));
        pairs.push(("seed".to_owned(), Json::num(self.seed as f64)));
        if self.throttle_ms > 0 {
            pairs.push(("throttle_ms".to_owned(), Json::num(self.throttle_ms as f64)));
        }
        if self.timeout_secs > 0 {
            pairs.push((
                "timeout_secs".to_owned(),
                Json::num(self.timeout_secs as f64),
            ));
        }
        if let Some(model) = &self.model {
            pairs.push(("model".to_owned(), Json::str(model.to_param())));
        }
        let params = self.params.to_json();
        if !params.as_object().expect("object").is_empty() {
            pairs.push(("params".to_owned(), params));
        }
        Json::Obj(pairs)
    }

    /// Applies variant and overrides to a pipeline builder.
    pub fn apply(&self, builder: PipelineBuilder) -> PipelineBuilder {
        let p = &self.params;
        let mut b = builder.variant(self.variant);
        if let Some(v) = p.theta_init {
            b = b.theta_init(v);
        }
        if let Some(v) = p.neg_ratio {
            b = b.neg_ratio(v);
        }
        if let Some(v) = p.alpha {
            b = b.alpha(v);
        }
        if let Some(v) = p.threads {
            b = b.threads(v);
        }
        if let Some(v) = p.max_iterations {
            b = b.max_iterations(v);
        }
        if let Some(v) = p.supervision_fraction {
            b = b.supervision_fraction(v);
        }
        if let Some(v) = p.negative_ratio {
            b = b.negative_ratio(v);
        }
        if let Some(v) = p.filtering {
            b = b.filtering(v);
        }
        if let Some(v) = p.bidirectional {
            b = b.bidirectional(v);
        }
        b
    }

    /// Runs the pipeline builder's validation over the overrides, and
    /// bounds an uploaded edge list: its node universe by
    /// [`MAX_UPLOAD_NODES`], and its total multiplicity by `u32::MAX`
    /// (every projected pair weight is at most that total, so the
    /// projection cannot wrap a `u32` weight).
    ///
    /// # Errors
    ///
    /// [`MariohError::Config`]: exactly the one the builder produces,
    /// or one naming the bound an upload passes — the HTTP layer
    /// forwards its message verbatim as the 400 body.
    pub fn validate(&self) -> Result<(), MariohError> {
        if let JobInput::Edges(h) = &self.input {
            if h.num_nodes() > MAX_UPLOAD_NODES {
                return Err(MariohError::Config(format!(
                    "invalid edge list: node id {} is too large (node ids must be below {MAX_UPLOAD_NODES})",
                    h.num_nodes() - 1
                )));
            }
            if h.total_edge_count() > u64::from(u32::MAX) {
                return Err(MariohError::Config(format!(
                    "invalid edge list: total multiplicity {} is above {}",
                    h.total_edge_count(),
                    u32::MAX
                )));
            }
        }
        self.apply(Pipeline::builder()).build().map(|_| ())
    }

    /// The canonical byte encoding: a fixed-field-order JSON rendering of
    /// the job's **effective** configuration.
    ///
    /// Properties, enforced by the property tests in
    /// `crates/store/tests/spec_hash.rs`:
    ///
    /// * independent of JSON key order, whitespace, and number spelling
    ///   in the submitted body (the body is parsed before encoding);
    /// * an omitted parameter and its explicitly-spelled default encode
    ///   identically (defaults are materialised, e.g. a missing `scale`
    ///   becomes the dataset's default scale);
    /// * ablation variants collapse into their effective configuration
    ///   (`MARIOH-F` ≡ `MARIOH` + `filtering: false`);
    /// * non-semantic knobs never appear: `threads` (bit-identical
    ///   results at any thread count, by the round-frozen invariant),
    ///   `throttle_ms` (pacing only), and `timeout_secs` (a deadline
    ///   changes when a job is abandoned, never what it computes).
    ///
    /// # Errors
    ///
    /// [`MariohError::Config`] when the spec fails builder validation
    /// (an invalid spec has no canonical form).
    pub fn canonical(&self) -> Result<String, MariohError> {
        let pipeline = self.apply(Pipeline::builder()).build()?;
        let t = pipeline.training_config();
        let c = pipeline.config();
        let input = match &self.input {
            JobInput::Dataset { dataset, scale } => Json::Obj(vec![
                ("dataset".to_owned(), Json::str(dataset.name())),
                (
                    "scale".to_owned(),
                    Json::num(scale.unwrap_or_else(|| dataset.default_scale())),
                ),
            ]),
            JobInput::Edges(h) => Json::Obj(vec![("edges".to_owned(), Json::str(edges_text(h)))]),
        };
        let model = match &self.model {
            Some(m) => Json::str(m.canonical()),
            None => Json::Null,
        };
        let opt = &t.optimizer;
        Ok(Json::Obj(vec![
            (
                "format".to_owned(),
                Json::num(CANONICAL_FORMAT_VERSION as f64),
            ),
            ("input".to_owned(), input),
            ("seed".to_owned(), Json::num(self.seed as f64)),
            ("model".to_owned(), model),
            ("features".to_owned(), Json::str(t.feature_mode.tag())),
            ("theta_init".to_owned(), Json::num(c.theta_init)),
            ("neg_ratio".to_owned(), Json::num(c.neg_ratio)),
            ("alpha".to_owned(), Json::num(c.alpha)),
            ("filtering".to_owned(), Json::Bool(c.use_filtering)),
            ("bidirectional".to_owned(), Json::Bool(c.use_bidirectional)),
            (
                "max_iterations".to_owned(),
                Json::num(c.max_iterations as f64),
            ),
            (
                "supervision_fraction".to_owned(),
                Json::num(t.supervision_fraction),
            ),
            ("negative_ratio".to_owned(), Json::num(t.negative_ratio)),
            (
                "hidden".to_owned(),
                Json::Arr(t.hidden.iter().map(|w| Json::num(*w as f64)).collect()),
            ),
            (
                "optimizer".to_owned(),
                Json::Obj(vec![
                    ("epochs".to_owned(), Json::num(opt.epochs as f64)),
                    ("learning_rate".to_owned(), Json::num(opt.learning_rate)),
                    ("batch_size".to_owned(), Json::num(opt.batch_size as f64)),
                    ("weight_decay".to_owned(), Json::num(opt.weight_decay)),
                ]),
            ),
        ])
        .to_string())
    }

    /// SHA-256 over [`JobSpec::canonical`] — the key of every cached
    /// artifact this spec can produce.
    ///
    /// # Errors
    ///
    /// [`MariohError::Config`] when the spec fails builder validation.
    pub fn content_hash(&self) -> Result<SpecHash, MariohError> {
        Ok(SpecHash::of(self.canonical()?.as_bytes()))
    }
}

/// The deterministic text rendering of an uploaded hypergraph (sorted
/// edge order), shared by the canonical encoding and the record log.
fn edges_text(h: &Hypergraph) -> String {
    let mut buf = Vec::new();
    hio::write_hypergraph(h, &mut buf).expect("in-memory write cannot fail");
    String::from_utf8(buf).expect("edge list text is UTF-8")
}

/// The lifecycle states of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Accepted, waiting in the FIFO queue.
    Queued,
    /// Picked up by a worker.
    Running,
    /// Finished successfully; the result is available.
    Done,
    /// Finished with an error (see the job's `error`).
    Failed,
    /// Cancelled, by `DELETE /jobs/:id` or server shutdown.
    Cancelled,
}

impl JobStatus {
    /// The lower-case wire name used in JSON responses and the record
    /// log.
    pub fn as_str(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
            JobStatus::Cancelled => "cancelled",
        }
    }

    /// Parses the wire name produced by [`JobStatus::as_str`].
    pub fn from_str_tag(tag: &str) -> Option<JobStatus> {
        match tag {
            "queued" => Some(JobStatus::Queued),
            "running" => Some(JobStatus::Running),
            "done" => Some(JobStatus::Done),
            "failed" => Some(JobStatus::Failed),
            "cancelled" => Some(JobStatus::Cancelled),
            _ => None,
        }
    }

    /// Whether the job can no longer change state.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobStatus::Done | JobStatus::Failed | JobStatus::Cancelled
        )
    }
}

impl std::fmt::Display for JobStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A successful reconstruction.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The reconstructed hypergraph.
    pub reconstruction: Hypergraph,
    /// Jaccard similarity against the held-out target half.
    pub jaccard: f64,
}

/// A point-in-time snapshot of one job, as served by `GET /jobs/:id`.
#[derive(Debug, Clone)]
pub struct JobView {
    /// Job id.
    pub id: u64,
    /// Current lifecycle state.
    pub status: JobStatus,
    /// Search rounds completed so far.
    pub rounds: usize,
    /// Hyperedges committed by the search so far.
    pub committed: usize,
    /// Failure message, present for failed jobs.
    pub error: Option<String>,
    /// Whether the result was answered from the artifact cache instead
    /// of a pipeline run.
    pub cached: bool,
}

/// State changes a [`crate::store::JobStore`] records. Terminal records
/// never change again: a transition on a terminal job is a no-op that
/// reports the existing status (so a worker's late `Failed` cannot
/// resurrect a job that `DELETE` already cancelled).
#[derive(Debug, Clone)]
pub enum Transition {
    /// `Queued → Running` (only [`crate::store::JobStore::start`] issues
    /// this internally).
    Start,
    /// Progress counters from the worker's observer; `None` fields are
    /// left unchanged (round and commit events arrive independently).
    Progress {
        /// Search rounds completed (monotone; the store keeps the max).
        rounds: Option<usize>,
        /// Cumulative hyperedges committed.
        committed: Option<usize>,
    },
    /// A worker-side failure message (kept even if a later transition
    /// carries its own).
    Note(String),
    /// The job finished with a result.
    Done {
        /// The reconstruction and its score.
        result: Arc<JobResult>,
        /// `true` when the result came from the artifact cache.
        cached: bool,
    },
    /// The job failed; the message is kept unless a [`Transition::Note`]
    /// already recorded one.
    Failed(String),
    /// The job was cancelled; a queued job's spec is dropped.
    Cancelled,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(body: &str) -> Result<JobSpec, String> {
        JobSpec::from_json(&Json::parse(body).unwrap())
    }

    #[test]
    fn spec_parses_dataset_method_seed_and_params() {
        let spec = parse(
            r#"{"dataset": "hosts", "method": "MARIOH-F", "seed": 9,
                "throttle_ms": 5, "scale": 0.5,
                "params": {"theta_init": 0.8, "threads": 2, "filtering": false}}"#,
        )
        .unwrap();
        assert!(matches!(
            spec.input,
            JobInput::Dataset {
                dataset: PaperDataset::Hosts,
                scale: Some(s)
            } if s == 0.5
        ));
        assert_eq!(spec.variant, Variant::NoFiltering);
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.throttle_ms, 5);
        assert_eq!(spec.params.theta_init, Some(0.8));
        assert_eq!(spec.params.threads, Some(2));
        assert_eq!(spec.params.filtering, Some(false));
        spec.validate().unwrap();
    }

    #[test]
    fn spec_accepts_uploaded_edges() {
        use marioh_hypergraph::hyperedge::edge;
        let mut h = Hypergraph::new(0);
        h.add_edge_with_multiplicity(edge(&[0, 1, 2]), 2);
        h.add_edge(edge(&[1, 3]));
        let mut text = Vec::new();
        hio::write_hypergraph(&h, &mut text).unwrap();
        let body = Json::Obj(vec![(
            "edges".to_owned(),
            Json::str(String::from_utf8(text).unwrap()),
        )]);
        let spec = JobSpec::from_json(&body).unwrap();
        match spec.input {
            JobInput::Edges(parsed) => {
                assert_eq!(parsed.unique_edge_count(), 2);
                assert_eq!(parsed.total_edge_count(), 3);
            }
            other => panic!("expected edges input, got {other:?}"),
        }
    }

    #[test]
    fn spec_rejections_name_the_offence() {
        for (body, needle) in [
            (r#"[]"#, "must be a JSON object"),
            (r#"{}"#, "provide \"dataset\" or \"edges\""),
            (r#"{"dataset": "nope"}"#, "unknown dataset"),
            (r#"{"dataset": "Hosts", "edges": "1 0 1"}"#, "not both"),
            (
                r#"{"dataset": "Hosts", "dataset": "Crime"}"#,
                "duplicate field \"dataset\"",
            ),
            (
                r#"{"dataset": "Hosts", "bogus": 1}"#,
                "unknown field \"bogus\"",
            ),
            (
                r#"{"dataset": "Hosts", "method": "pagerank"}"#,
                "unknown method",
            ),
            (r#"{"dataset": "Hosts", "seed": -1}"#, "\"seed\""),
            (r#"{"dataset": "Hosts", "scale": 0}"#, "\"scale\""),
            (
                r#"{"dataset": "Hosts", "throttle_ms": 999999}"#,
                "throttle_ms",
            ),
            (
                r#"{"dataset": "Hosts", "timeout_secs": 99999999}"#,
                "timeout_secs",
            ),
            (
                r#"{"dataset": "Hosts", "timeout_secs": -3}"#,
                "timeout_secs",
            ),
            (r#"{"edges": "not numbers"}"#, "invalid edge list"),
            (
                r#"{"edges": "1 0 1", "scale": 2}"#,
                "only applies to registry datasets",
            ),
            (
                r#"{"dataset": "Hosts", "params": {"theta_init": 0.9, "theta_init": 0.8}}"#,
                "duplicate hyperparameter \"theta_init\"",
            ),
            (
                r#"{"dataset": "Hosts", "params": {"volume": 11}}"#,
                "unknown hyperparameter",
            ),
            (
                r#"{"dataset": "Hosts", "params": {"threads": 1.5}}"#,
                "non-negative integer",
            ),
            (
                r#"{"dataset": "Hosts", "params": {"filtering": 1}}"#,
                "must be a boolean",
            ),
            (r#"{"dataset": "Hosts", "model": 7}"#, "\"model\""),
            (
                r#"{"dataset": "Hosts", "model": "job:x"}"#,
                "invalid job reference",
            ),
            (
                r#"{"dataset": "Hosts", "model": "no/slashes"}"#,
                "invalid model name",
            ),
        ] {
            let err = parse(body).unwrap_err();
            assert!(err.contains(needle), "{body} -> {err}");
        }
    }

    #[test]
    fn validate_bounds_the_universe_and_total_multiplicity_of_uploads() {
        let upload = |edges: &str| {
            parse(&format!(r#"{{"edges": {}}}"#, Json::str(edges)))
                .unwrap()
                .validate()
                .map_err(|e| e.to_string())
        };
        let largest = MAX_UPLOAD_NODES - 1;
        assert!(upload(&format!("1 0 {largest}")).is_ok());
        let err = upload(&format!("1 0 {MAX_UPLOAD_NODES}")).unwrap_err();
        assert!(
            err.contains(&format!("node id {MAX_UPLOAD_NODES} is too large")),
            "{err}"
        );
        assert!(upload("4294967294 0 1\n1 1 2").is_ok());
        let err = upload("4294967294 0 1\n2 1 2").unwrap_err();
        assert!(err.contains("total multiplicity 4294967296"), "{err}");
    }

    #[test]
    fn validate_produces_the_builder_message_verbatim() {
        let spec = parse(r#"{"dataset": "Hosts", "params": {"theta_init": 1.5}}"#).unwrap();
        let got = spec.validate().unwrap_err().to_string();
        let expected = Pipeline::builder()
            .theta_init(1.5)
            .build()
            .unwrap_err()
            .to_string();
        assert_eq!(got, expected);
    }

    #[test]
    fn model_refs_parse_and_round_trip() {
        assert_eq!(ModelRef::parse("job:17"), Ok(ModelRef::Job(17)));
        assert_eq!(
            ModelRef::parse("enron-v2"),
            Ok(ModelRef::Named("enron-v2".to_owned()))
        );
        assert!(ModelRef::parse("job:").is_err());
        assert!(ModelRef::parse("").is_err());
        assert!(ModelRef::parse(".hidden").is_err());
        assert!(ModelRef::parse(&"x".repeat(65)).is_err());
        let spec = parse(r#"{"dataset": "Hosts", "model": "job:3"}"#).unwrap();
        assert_eq!(spec.model, Some(ModelRef::Job(3)));
        let spec = parse(r#"{"dataset": "Hosts", "model": "mymodel"}"#).unwrap();
        assert_eq!(spec.model, Some(ModelRef::Named("mymodel".to_owned())));
    }

    #[test]
    fn to_json_round_trips_through_from_json_with_the_same_hash() {
        for body in [
            r#"{"dataset": "Hosts"}"#,
            r#"{"dataset": "crime", "scale": 0.5, "method": "MARIOH-B", "seed": 12}"#,
            r#"{"dataset": "Hosts", "throttle_ms": 9, "model": "job:4",
                "params": {"theta_init": 0.7, "filtering": false, "threads": 3}}"#,
            r#"{"dataset": "Hosts", "timeout_secs": 30, "seed": 2}"#,
            r#"{"edges": "2 0 1 2\n1 1 3\n", "seed": 5}"#,
        ] {
            let spec = parse(body).unwrap();
            let back = JobSpec::from_json(&spec.to_json()).expect("round trip parses");
            assert_eq!(
                spec.content_hash().unwrap(),
                back.content_hash().unwrap(),
                "{body}"
            );
            assert_eq!(spec.throttle_ms, back.throttle_ms, "{body}");
            assert_eq!(spec.timeout_secs, back.timeout_secs, "{body}");
            assert_eq!(spec.model, back.model, "{body}");
        }
    }

    #[test]
    fn canonical_collapses_variants_and_ignores_non_semantic_knobs() {
        // MARIOH-F ≡ MARIOH + filtering:false — same effective
        // computation, same hash.
        let a = parse(r#"{"dataset": "Hosts", "method": "MARIOH-F"}"#).unwrap();
        let b = parse(r#"{"dataset": "Hosts", "params": {"filtering": false}}"#).unwrap();
        assert_eq!(a.content_hash().unwrap(), b.content_hash().unwrap());

        // threads, throttle_ms, and timeout_secs never change the
        // result, so they never change the hash.
        let base = parse(r#"{"dataset": "Hosts"}"#).unwrap();
        let knobs = parse(
            r#"{"dataset": "Hosts", "throttle_ms": 50, "timeout_secs": 120,
                "params": {"threads": 4}}"#,
        )
        .unwrap();
        assert_eq!(base.content_hash().unwrap(), knobs.content_hash().unwrap());

        // A semantic change does.
        let seeded = parse(r#"{"dataset": "Hosts", "seed": 1}"#).unwrap();
        assert_ne!(base.content_hash().unwrap(), seeded.content_hash().unwrap());
    }

    #[test]
    fn invalid_specs_have_no_canonical_form() {
        let spec = parse(r#"{"dataset": "Hosts", "params": {"theta_init": 1.5}}"#).unwrap();
        assert!(matches!(spec.content_hash(), Err(MariohError::Config(_))));
    }
}
