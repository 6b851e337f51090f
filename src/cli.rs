//! The `marioh` command-line tool.
//!
//! End-to-end reconstruction from the shell, using the text formats of
//! [`marioh_hypergraph::io`] and the model format of
//! [`marioh_core::persistence`]:
//!
//! ```text
//! marioh generate    --dataset hosts --out h.txt [--scale s]
//! marioh import-benson --stem path/to/email-Enron --out h.txt [--reduced]
//! marioh project     --hypergraph h.txt --out g.txt
//! marioh split       --hypergraph h.txt --source src.txt --target tgt.txt [--seed n]
//! marioh stats       --hypergraph h.txt
//! marioh train       --source src.txt --model model.txt [--features multiplicity|count|motif] [--fraction f] [--seed n]
//! marioh reconstruct --graph g.txt --model model.txt --out rec.txt [--threads 4]
//!                    [--theta t] [--ratio r] [--alpha a] [--no-filtering] [--no-bidirectional]
//!                    [--seed n] [--verbose] [--trace-out trace.json] [--pin-cores]
//! marioh eval        --truth tgt.txt --pred rec.txt
//! marioh serve       [--addr 127.0.0.1:7878] [--workers n] [--queue-cap n]
//!                    [--state-dir dir] [--retain n] [--store-budget bytes[K|M|G]] [--shards n]
//!                    [--job-timeout secs] [--shard-timeout secs] [--faults spec]
//!                    [--pin-cores]
//! marioh model export --state-dir dir (--job id | --name name) --out model.txt
//! marioh model import --state-dir dir --name name --model model.txt
//! ```
//!
//! `train` and `reconstruct` are thin shells over the
//! [`marioh_core::Pipeline`] builder — the same validated entry point the
//! experiment harness uses. Hyperparameters are checked up front
//! (`--theta 1.5` is rejected before any work happens), duplicate flags
//! are an error rather than silently last-wins, and `--verbose` streams
//! the pipeline's [`marioh_core::ProgressObserver`] events (per-round θ,
//! commit counts, stage timings) to stderr while results go to stdout.
//!
//! `serve` turns the same pipeline into a long-running job service (see
//! [`marioh_server`]): it prints the bound address to stderr and serves
//! until the process is killed. With `--state-dir` the job store and
//! artifact cache are durable ([`marioh_store::DiskStore`]): a restarted
//! server serves pre-restart results and resumes its queue. With
//! `--shards n` execution moves from the in-process worker pool to `n`
//! shard worker child processes (each a `marioh shard-worker`, spawned
//! and supervised over the [`marioh_wire`] protocol);
//! results are bit-identical between the two modes. `model
//! export`/`model import` move trained models between a state dir and
//! the unified persistence format of [`marioh_core::persistence`] —
//! exported job models keep their post-training RNG state, so a job
//! referencing the re-imported model still reproduces its donor.
//!
//! Errors are [`MariohError`] end to end; `main` prints them as
//! `error: {message}` and exits with [`MariohError::exit_code`]:
//! 2 for configuration errors, 3 for I/O failures, 130 for cancellation,
//! 1 otherwise. The historical [`CliError`] name remains as an alias.
//!
//! The logic lives here (unit-testable); `src/bin/marioh.rs` is a thin
//! wrapper.

use marioh_core::features::FeatureMode;
use marioh_core::filtering::FilterStats;
use marioh_core::reconstruct::ReconstructionReport;
use marioh_core::search::SearchStats;
use marioh_core::{MariohError, Pipeline, ProgressObserver, Reconstructor as _};
use marioh_datasets::split::split_source_target;
use marioh_datasets::{DatasetStats, PaperDataset};
use marioh_hypergraph::io;
use marioh_hypergraph::metrics::{jaccard, multi_jaccard, precision_recall_f1};
use marioh_server::{Server, ServerConfig, StorageConfig};
use marioh_store::{ArtifactStore as _, DiskStore, JobStore as _};
use rand::{rngs::StdRng, SeedableRng};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// Historical name of the CLI error type; every command now speaks
/// [`MariohError`] directly.
pub use marioh_core::MariohError as CliError;

/// The `--verbose` observer: streams pipeline progress to stderr so
/// stdout stays machine-readable.
struct VerboseProgress;

impl ProgressObserver for VerboseProgress {
    fn on_filtering_done(&self, stats: &FilterStats, secs: f64) {
        eprintln!(
            "[filtering] {} pairs certified, {} events extracted, {} edges removed ({secs:.3}s)",
            stats.pairs_identified, stats.multiplicity_extracted, stats.edges_removed
        );
    }

    fn on_round(&self, round: usize, theta: f64, stats: &SearchStats) {
        eprintln!(
            "[round {round}] θ={theta:.3} cliques={} committed={}+{} subcliques={} \
             reused={}/{} ({:.1}ms)",
            stats.cliques_enumerated,
            stats.committed_phase1,
            stats.committed_phase2,
            stats.subcliques_sampled,
            stats.cliques_reused,
            stats.cliques_rescored,
            stats.round_ms
        );
    }

    fn on_commit(&self, round: usize, committed: usize, total_committed: usize) {
        eprintln!("[round {round}] +{committed} hyperedges ({total_committed} total from search)");
    }

    fn on_done(&self, report: &ReconstructionReport) {
        // Reuse totals read back from the process-global metrics
        // registry — the same series `/metrics` exports — rather than a
        // second CLI-side accumulation.
        let snap = marioh_obs::global().snapshot();
        let reused = snap.counter("marioh_engine_cliques_reused_total");
        let rescored = snap.counter("marioh_engine_cliques_rescored_total");
        let ratio = if rescored == 0 {
            0.0
        } else {
            reused as f64 / rescored as f64
        };
        eprintln!(
            "[done] filtering {:.3}s, search {:.3}s over {} rounds \
             (engine reuse {:.1}%: {} cliques carried, {} rescored)",
            report.filtering_secs,
            report.search_secs,
            report.rounds.len(),
            ratio * 100.0,
            reused,
            rescored
        );
    }

    fn on_error(&self, msg: &str) {
        eprintln!("[error] {msg}");
    }
}

/// Parsed flags: `--key value` pairs plus boolean switches.
#[derive(Debug, Default)]
pub struct Flags {
    values: HashMap<String, String>,
    switches: Vec<String>,
}

impl Flags {
    /// Parses `--key value` / `--switch` style arguments. Passing the
    /// same flag twice is an error, not silent last-wins.
    pub fn parse(args: &[String]) -> Result<Flags, MariohError> {
        let mut flags = Flags::default();
        let mut i = 0;
        while i < args.len() {
            let arg = &args[i];
            let Some(name) = arg.strip_prefix("--") else {
                return Err(MariohError::Config(format!(
                    "unexpected positional argument {arg:?}"
                )));
            };
            // Boolean switches take no value.
            if matches!(
                name,
                "no-filtering" | "no-bidirectional" | "reduced" | "verbose" | "smoke" | "pin-cores"
            ) {
                if flags.switch(name) {
                    return Err(MariohError::Config(format!("duplicate flag --{name}")));
                }
                flags.switches.push(name.to_owned());
                i += 1;
                continue;
            }
            let value = args
                .get(i + 1)
                .ok_or_else(|| MariohError::Config(format!("flag --{name} needs a value")))?;
            if flags
                .values
                .insert(name.to_owned(), value.clone())
                .is_some()
            {
                return Err(MariohError::Config(format!("duplicate flag --{name}")));
            }
            i += 2;
        }
        Ok(flags)
    }

    fn require(&self, key: &str) -> Result<&str, MariohError> {
        self.values
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| MariohError::Config(format!("missing required flag --{key}")))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, MariohError> {
        match self.values.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| MariohError::Config(format!("invalid value for --{key}: {v:?}"))),
        }
    }

    fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

fn dataset_by_name(name: &str) -> Result<PaperDataset, MariohError> {
    PaperDataset::resolve(name).map_err(MariohError::Config)
}

/// Parses an optional whole-seconds flag into a `Duration`. An explicit
/// `0` becomes `Duration::ZERO` so [`Server::start`] can reject it with
/// its own message rather than silently meaning "unlimited".
fn secs_flag(flags: &Flags, key: &str) -> Result<Option<Duration>, MariohError> {
    match flags.get(key) {
        None => Ok(None),
        Some(v) => {
            let secs: u64 = v
                .parse()
                .map_err(|_| MariohError::Config(format!("invalid value for --{key}: {v:?}")))?;
            Ok(Some(Duration::from_secs(secs)))
        }
    }
}

/// Builds the `serve` configuration from flags. Worker count defaults to
/// the machine's parallelism (capped at 8); zero values are rejected by
/// [`Server::start`].
fn serve_config(flags: &Flags) -> Result<ServerConfig, MariohError> {
    let default_workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2)
        .min(8);
    Ok(ServerConfig {
        addr: flags.get("addr").unwrap_or("127.0.0.1:7878").to_owned(),
        workers: flags.get_parsed("workers", default_workers)?,
        queue_cap: flags.get_parsed("queue-cap", 64usize)?,
        shards: flags.get_parsed("shards", 0usize)?,
        shard_worker: Vec::new(), // re-exec this binary as `shard-worker`
        job_timeout: secs_flag(flags, "job-timeout")?,
        shard_timeout: secs_flag(flags, "shard-timeout")?,
        pin_cores: flags.switch("pin-cores"),
    })
}

/// Builds the `serve` storage configuration: `--state-dir` selects the
/// durable store, `--retain` bounds retained terminal records, and
/// `--store-budget` caps artifact bytes (LRU eviction past it).
fn storage_config(flags: &Flags) -> Result<StorageConfig, MariohError> {
    let default = StorageConfig::default();
    let store_budget = match flags.get("store-budget") {
        Some(text) => Some(parse_byte_size(text).ok_or_else(|| {
            MariohError::Config(format!(
                "invalid value for --store-budget: {text:?} \
                 (use bytes or a K/M/G suffix, e.g. 512M)"
            ))
        })?),
        None => None,
    };
    Ok(StorageConfig {
        state_dir: flags.get("state-dir").map(std::path::PathBuf::from),
        retain: flags.get_parsed("retain", default.retain)?,
        store_budget,
    })
}

/// Parses a byte size with an optional K/M/G suffix (powers of 1024):
/// `65536`, `512M`, `8G`.
fn parse_byte_size(text: &str) -> Option<u64> {
    let t = text.trim();
    let (digits, mult) = match t.char_indices().last()? {
        (i, 'k') | (i, 'K') => (&t[..i], 1u64 << 10),
        (i, 'm') | (i, 'M') => (&t[..i], 1 << 20),
        (i, 'g') | (i, 'G') => (&t[..i], 1 << 30),
        _ => (t, 1),
    };
    digits.trim().parse::<u64>().ok()?.checked_mul(mult)
}

/// Opens the durable store named by `--state-dir` read-write, for
/// subcommands that modify it (`model import`). The store holds an
/// exclusive OS lock on the dir, so running these against a serving
/// process fails with a clear error — stop the server first.
fn open_state_dir(flags: &Flags) -> Result<DiskStore, MariohError> {
    let dir = flags.require("state-dir")?;
    DiskStore::open(dir, StorageConfig::default().retain)
}

/// Opens the store named by `--state-dir` **read-only** — no lock, no
/// writes — so `model export` works against a live server's state dir
/// without stopping it.
fn open_state_dir_read_only(flags: &Flags) -> Result<DiskStore, MariohError> {
    DiskStore::open_read_only(flags.require("state-dir")?)
}

/// Runs one subcommand; returns the text to print on success.
pub fn run(command: &str, flags: &Flags) -> Result<String, MariohError> {
    match command {
        "generate" => {
            let ds = dataset_by_name(flags.require("dataset")?)?;
            let scale = flags.get_parsed("scale", ds.default_scale())?;
            let data = ds.generate_scaled(scale);
            let h = if flags.switch("reduced") {
                data.hypergraph.reduce_multiplicity()
            } else {
                data.hypergraph
            };
            io::save_hypergraph(&h, flags.require("out")?)?;
            Ok(format!(
                "wrote {} ({} unique hyperedges, {} events) to {}",
                data.name,
                h.unique_edge_count(),
                h.total_edge_count(),
                flags.require("out")?
            ))
        }
        "import-benson" => {
            let data = marioh_hypergraph::benson::load_benson(flags.require("stem")?)?;
            let h = if flags.switch("reduced") {
                data.hypergraph.reduce_multiplicity()
            } else {
                data.hypergraph
            };
            io::save_hypergraph(&h, flags.require("out")?)?;
            Ok(format!(
                "imported {} unique hyperedges ({} events{}) to {}",
                h.unique_edge_count(),
                h.total_edge_count(),
                if data.timestamped.is_empty() {
                    String::new()
                } else {
                    format!(", {} timestamps", data.timestamped.len())
                },
                flags.require("out")?
            ))
        }
        "project" => {
            let h = io::load_hypergraph(flags.require("hypergraph")?)?;
            let g = marioh_hypergraph::projection::project(&h);
            io::save_graph(&g, flags.require("out")?)?;
            Ok(format!(
                "projected {} hyperedges to {} weighted edges",
                h.unique_edge_count(),
                g.num_edges()
            ))
        }
        "split" => {
            let h = io::load_hypergraph(flags.require("hypergraph")?)?;
            let seed = flags.get_parsed("seed", 0u64)?;
            let mut rng = StdRng::seed_from_u64(seed);
            let (source, target) = split_source_target(&h, &mut rng);
            io::save_hypergraph(&source, flags.require("source")?)?;
            io::save_hypergraph(&target, flags.require("target")?)?;
            Ok(format!(
                "split {} events into source {} / target {}",
                h.total_edge_count(),
                source.total_edge_count(),
                target.total_edge_count()
            ))
        }
        "stats" => {
            let h = io::load_hypergraph(flags.require("hypergraph")?)?;
            let s = DatasetStats::compute(flags.get("name").unwrap_or("hypergraph"), &h);
            let mut out = String::new();
            writeln!(out, "{}", DatasetStats::header()).expect("infallible");
            writeln!(out, "{}", s.row()).expect("infallible");
            Ok(out)
        }
        "train" => {
            let source = io::load_hypergraph(flags.require("source")?)?;
            let mode = match flags.get("features").unwrap_or("multiplicity") {
                "multiplicity" => FeatureMode::Multiplicity,
                "count" => FeatureMode::Count,
                "motif" => FeatureMode::Motif,
                other => return Err(MariohError::Config(format!("unknown feature mode {other:?}"))),
            };
            let pipeline = Pipeline::builder()
                .features(mode)
                .supervision_fraction(flags.get_parsed("fraction", 1.0)?)
                .build()?;
            let seed = flags.get_parsed("seed", 0u64)?;
            let mut rng = StdRng::seed_from_u64(seed);
            let model = pipeline.train(&source, &mut rng)?;
            model.model().save(flags.require("model")?)?;
            Ok(format!(
                "trained a {mode:?} classifier on {} hyperedges; saved to {}",
                source.unique_edge_count(),
                flags.require("model")?
            ))
        }
        "reconstruct" => {
            // Validate hyperparameters before touching any file.
            let mut builder = Pipeline::builder()
                .theta_init(flags.get_parsed("theta", 0.9)?)
                .neg_ratio(flags.get_parsed("ratio", 20.0)?)
                .alpha(flags.get_parsed("alpha", 1.0 / 20.0)?)
                .filtering(!flags.switch("no-filtering"))
                .bidirectional(!flags.switch("no-bidirectional"))
                .threads(flags.get_parsed("threads", 1usize)?)
                .pin_cores(flags.switch("pin-cores"));
            if flags.switch("verbose") {
                builder = builder.observer(Arc::new(VerboseProgress));
            }
            let pipeline = builder.build()?;
            let trace_out = flags.get("trace-out");
            if trace_out.is_some() {
                marioh_obs::trace_start(0); // 0 = default ring capacity
            }
            let g = io::load_graph(flags.require("graph")?)?;
            let model = pipeline.load_model(flags.require("model")?)?;
            let seed = flags.get_parsed("seed", 0u64)?;
            let mut rng = StdRng::seed_from_u64(seed);
            let rec = model.reconstruct(&g, &mut rng)?;
            io::save_hypergraph(&rec, flags.require("out")?)?;
            let mut report = format!(
                "reconstructed {} unique hyperedges ({} events) from {} edges",
                rec.unique_edge_count(),
                rec.total_edge_count(),
                g.num_edges()
            );
            if let Some(path) = trace_out {
                let json = marioh_obs::trace_dump()
                    .expect("recorder was armed above and nothing else disarms it");
                std::fs::write(path, &json)?;
                let _ = write!(report, "; wrote phase trace to {path}");
            }
            Ok(report)
        }
        "serve" => {
            // `--faults` arms the deterministic fault-injection plan
            // (see `marioh_fault` and crates/fault/FORMATS.md). The spec
            // is re-exported through the environment so `shard-worker`
            // children inherit their `shard.K` sites.
            if let Some(spec) = flags.get("faults") {
                let plan = marioh_fault::FaultPlan::parse(spec).map_err(MariohError::Config)?;
                std::env::set_var(marioh_fault::FAULTS_ENV, spec);
                marioh_fault::arm(plan);
                eprintln!("marioh-server fault plan armed: {spec}");
            }
            let server = Server::start_with_storage(serve_config(flags)?, storage_config(flags)?)?;
            let addr = server.local_addr();
            let stats = server.manager().stats();
            // Formatted first and written in one piece: stderr is
            // unbuffered, and a reader polling for the banner must never
            // see the address without its port.
            let banner = format!(
                "marioh-server listening on http://{addr} ({}, queue capacity {}, {} store{})",
                if stats.shards > 0 {
                    format!("{} shard processes", stats.shards)
                } else {
                    format!("{} workers", stats.workers)
                },
                stats.queue_cap,
                stats.store,
                if stats.queue_depth > 0 {
                    format!(", {} recovered jobs re-queued", stats.queue_depth)
                } else {
                    String::new()
                }
            );
            eprintln!("{banner}");
            // `--smoke` boots and immediately shuts down gracefully —
            // deployment checks and the test suite use it.
            if flags.switch("smoke") {
                server.shutdown();
                return Ok(format!("serve smoke test passed on {addr}"));
            }
            loop {
                std::thread::park(); // serve until the process is killed
            }
        }
        // Internal: the child process half of `serve --shards`. Connects
        // back to the dispatcher that spawned it and executes jobs until
        // the connection closes. Not part of the public surface, but
        // harmless to run by hand against a listening dispatcher.
        "shard-worker" => {
            // Pick up a fault plan exported by the parent `serve`
            // process (no-op without `MARIOH_FAULTS`).
            marioh_fault::init_from_env().map_err(MariohError::Config)?;
            let addr = flags.require("connect")?;
            let shard = flags.get_parsed("shard", 0usize)?;
            marioh_dispatch::shard_worker::run(addr, shard)
                .map_err(|e| MariohError::config(format!("shard worker failed: {e}")))?;
            Ok(format!("shard {shard} finished cleanly"))
        }
        "eval" => {
            let truth = io::load_hypergraph(flags.require("truth")?)?;
            let pred = io::load_hypergraph(flags.require("pred")?)?;
            let (p, r, f1) = precision_recall_f1(&truth, &pred);
            Ok(format!(
                "Jaccard {:.4}\nmulti-Jaccard {:.4}\nprecision {p:.4} recall {r:.4} F1 {f1:.4}",
                jaccard(&truth, &pred),
                multi_jaccard(&truth, &pred),
            ))
        }
        // `marioh model export` — the binary folds the subcommand in.
        "model-export" => {
            let store = open_state_dir_read_only(flags)?;
            let out = flags.require("out")?;
            let saved = match (flags.get("job"), flags.get("name")) {
                (Some(job), None) => {
                    let id: u64 = job.parse().map_err(|_| {
                        MariohError::Config(format!("invalid value for --job: {job:?}"))
                    })?;
                    let hash = store.spec_hash(id).ok_or_else(|| {
                        MariohError::Config(format!("no job {id} in this state dir (or evicted)"))
                    })?;
                    store.get_model(&hash).ok_or_else(|| {
                        MariohError::Config(format!(
                            "job {id} has no stored model (not done, answered from cache, \
                             or trained nothing)"
                        ))
                    })?
                }
                (None, Some(name)) => store.get_named_model(name).ok_or_else(|| {
                    MariohError::Config(format!("no saved model named {name:?}"))
                })?,
                _ => {
                    return Err(MariohError::config(
                        "model export needs exactly one of --job <id> or --name <name>",
                    ))
                }
            };
            saved.save(out)?;
            Ok(format!(
                "exported a {} classifier{} to {out}",
                saved.model.feature_mode().tag(),
                if saved.rng_state.is_some() {
                    " (with donor RNG state)"
                } else {
                    ""
                },
            ))
        }
        "model-import" => {
            let store = open_state_dir(flags)?;
            let name = flags.require("name")?;
            let saved = marioh_core::SavedModel::load(flags.require("model")?)?;
            store.put_named_model(name, &saved)?;
            Ok(format!(
                "imported a {} classifier as {name:?}; jobs can now reference {{\"model\": {name:?}}}",
                saved.model.feature_mode().tag()
            ))
        }
        other => Err(MariohError::Config(format!(
            "unknown command {other:?}; commands: generate import-benson project split stats train reconstruct eval serve model"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(pairs: &[(&str, &str)], switches: &[&str]) -> Flags {
        let mut args: Vec<String> = Vec::new();
        for (k, v) in pairs {
            args.push(format!("--{k}"));
            args.push((*v).to_owned());
        }
        for s in switches {
            args.push(format!("--{s}"));
        }
        Flags::parse(&args).expect("valid flags")
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("marioh-cli-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn flag_parsing() {
        let f = Flags::parse(&[
            "--a".into(),
            "1".into(),
            "--no-filtering".into(),
            "--b".into(),
            "x".into(),
        ])
        .unwrap();
        assert_eq!(f.require("a").unwrap(), "1");
        assert_eq!(f.get("b"), Some("x"));
        assert!(f.switch("no-filtering"));
        assert!(!f.switch("no-bidirectional"));
        assert!(f.require("missing").is_err());
        assert!(Flags::parse(&["oops".into()]).is_err());
        assert!(Flags::parse(&["--dangling".into()]).is_err());
    }

    #[test]
    fn duplicate_flags_are_rejected() {
        let err =
            Flags::parse(&["--seed".into(), "1".into(), "--seed".into(), "2".into()]).unwrap_err();
        assert!(matches!(&err, MariohError::Config(m) if m == "duplicate flag --seed"));
        let err = Flags::parse(&["--verbose".into(), "--verbose".into()]).unwrap_err();
        assert!(matches!(&err, MariohError::Config(m) if m == "duplicate flag --verbose"));
    }

    #[test]
    fn reconstruct_rejects_invalid_hyperparameters_up_front() {
        // The builder catches --theta 1.5 before touching any file.
        let h_path = tmp("h_invalid.txt");
        let g_path = tmp("g_invalid.txt");
        let model = tmp("m_invalid.txt");
        run(
            "generate",
            &flags(&[("dataset", "Hosts"), ("out", &h_path)], &["reduced"]),
        )
        .unwrap();
        run(
            "project",
            &flags(&[("hypergraph", &h_path), ("out", &g_path)], &[]),
        )
        .unwrap();
        run(
            "train",
            &flags(&[("source", &h_path), ("model", &model)], &[]),
        )
        .unwrap();
        let err = run(
            "reconstruct",
            &flags(
                &[
                    ("graph", &g_path),
                    ("model", &model),
                    ("out", &tmp("r_invalid.txt")),
                    ("theta", "1.5"),
                ],
                &[],
            ),
        )
        .unwrap_err();
        assert!(
            matches!(&err, MariohError::Config(m) if m.contains("theta_init")),
            "{err}"
        );
        // --ratio 0 and --threads 0 are also builder-validated.
        for (key, value, needle) in [("ratio", "0", "neg_ratio"), ("threads", "0", "threads")] {
            let err = run(
                "reconstruct",
                &flags(
                    &[
                        ("graph", &g_path),
                        ("model", &model),
                        ("out", &tmp("r_invalid.txt")),
                        (key, value),
                    ],
                    &[],
                ),
            )
            .unwrap_err();
            assert!(
                matches!(&err, MariohError::Config(m) if m.contains(needle)),
                "{err}"
            );
        }
    }

    #[test]
    fn verbose_reconstruct_runs_end_to_end() {
        let h_path = tmp("h_verbose.txt");
        let g_path = tmp("g_verbose.txt");
        let model = tmp("m_verbose.txt");
        let rec = tmp("r_verbose.txt");
        run(
            "generate",
            &flags(&[("dataset", "Hosts"), ("out", &h_path)], &["reduced"]),
        )
        .unwrap();
        run(
            "project",
            &flags(&[("hypergraph", &h_path), ("out", &g_path)], &[]),
        )
        .unwrap();
        run(
            "train",
            &flags(&[("source", &h_path), ("model", &model)], &[]),
        )
        .unwrap();
        let trace = tmp("t_verbose.json");
        let report = run(
            "reconstruct",
            &flags(
                &[
                    ("graph", &g_path),
                    ("model", &model),
                    ("out", &rec),
                    ("trace-out", &trace),
                ],
                &["verbose"],
            ),
        )
        .unwrap();
        assert!(report.starts_with("reconstructed"), "{report}");
        assert!(report.contains("wrote phase trace"), "{report}");
        let json = std::fs::read_to_string(&trace).unwrap();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"traceEvents\""), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "trace has no spans: {json}");
    }

    #[test]
    fn corrupt_model_surfaces_as_model_format_error() {
        let bad = tmp("bad_model.txt");
        std::fs::write(&bad, "garbage").unwrap();
        let g_path = tmp("g_corrupt.txt");
        let h_path = tmp("h_corrupt.txt");
        run(
            "generate",
            &flags(&[("dataset", "Hosts"), ("out", &h_path)], &["reduced"]),
        )
        .unwrap();
        run(
            "project",
            &flags(&[("hypergraph", &h_path), ("out", &g_path)], &[]),
        )
        .unwrap();
        let err = run(
            "reconstruct",
            &flags(
                &[("graph", &g_path), ("model", &bad), ("out", &tmp("r.txt"))],
                &[],
            ),
        )
        .unwrap_err();
        assert!(matches!(err, MariohError::ModelFormat(_)), "{err}");
    }

    #[test]
    fn full_pipeline_through_the_cli() {
        let h_path = tmp("h.txt");
        let src = tmp("src.txt");
        let tgt = tmp("tgt.txt");
        let g_path = tmp("g.txt");
        let model = tmp("model.txt");
        let rec = tmp("rec.txt");

        run(
            "generate",
            &flags(&[("dataset", "Hosts"), ("out", &h_path)], &["reduced"]),
        )
        .unwrap();
        run(
            "split",
            &flags(
                &[
                    ("hypergraph", &h_path),
                    ("source", &src),
                    ("target", &tgt),
                    ("seed", "1"),
                ],
                &[],
            ),
        )
        .unwrap();
        run(
            "project",
            &flags(&[("hypergraph", &tgt), ("out", &g_path)], &[]),
        )
        .unwrap();
        run(
            "train",
            &flags(&[("source", &src), ("model", &model), ("seed", "1")], &[]),
        )
        .unwrap();
        run(
            "reconstruct",
            &flags(
                &[
                    ("graph", &g_path),
                    ("model", &model),
                    ("out", &rec),
                    ("seed", "1"),
                ],
                &[],
            ),
        )
        .unwrap();
        let report = run("eval", &flags(&[("truth", &tgt), ("pred", &rec)], &[])).unwrap();
        // Hosts is the easy regime: expect high similarity.
        let jline = report.lines().next().unwrap();
        let j: f64 = jline.rsplit(' ').next().unwrap().parse().unwrap();
        assert!(j > 0.8, "CLI pipeline Jaccard {j}");
    }

    #[test]
    fn import_benson_round_trip() {
        // Write a tiny Benson triple, import it, and check the counts.
        let dir = std::env::temp_dir().join("marioh-cli-benson");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let stem = dir.join("toy").to_string_lossy().into_owned();
        std::fs::write(dir.join("toy-nverts.txt"), "3\n2\n3\n").unwrap();
        std::fs::write(dir.join("toy-simplices.txt"), "1\n2\n3\n4\n5\n1\n2\n3\n").unwrap();
        std::fs::write(dir.join("toy-times.txt"), "1\n2\n3\n").unwrap();
        let out = tmp("benson.txt");
        let report = run(
            "import-benson",
            &flags(&[("stem", &stem), ("out", &out)], &[]),
        )
        .unwrap();
        assert!(report.contains("2 unique hyperedges"), "{report}");
        assert!(report.contains("3 events"), "{report}");
        let h = io::load_hypergraph(&out).unwrap();
        assert_eq!(h.total_edge_count(), 3);
        // --reduced folds the duplicate away.
        let report = run(
            "import-benson",
            &flags(&[("stem", &stem), ("out", &out)], &["reduced"]),
        )
        .unwrap();
        assert!(report.contains("2 events"), "{report}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_smoke_boots_and_shuts_down() {
        let report = run(
            "serve",
            &flags(
                &[
                    ("addr", "127.0.0.1:0"),
                    ("workers", "2"),
                    ("queue-cap", "4"),
                ],
                &["smoke"],
            ),
        )
        .unwrap();
        assert!(report.contains("smoke test passed"), "{report}");
    }

    #[test]
    fn serve_smoke_with_a_state_dir_creates_the_store_layout() {
        let dir = std::env::temp_dir().join(format!("marioh-cli-state-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let state = dir.to_string_lossy().into_owned();
        let report = run(
            "serve",
            &flags(
                &[
                    ("addr", "127.0.0.1:0"),
                    ("workers", "1"),
                    ("state-dir", &state),
                    ("retain", "16"),
                ],
                &["smoke"],
            ),
        )
        .unwrap();
        assert!(report.contains("smoke test passed"), "{report}");
        assert!(dir.join("VERSION").exists());
        assert!(dir.join("jobs.snapshot").exists());
        // A zero retention is rejected like the other zero knobs.
        let err = run(
            "serve",
            &flags(&[("addr", "127.0.0.1:0"), ("retain", "0")], &["smoke"]),
        )
        .unwrap_err();
        assert!(err.to_string().contains("retention"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_budget_flag_parses_byte_suffixes() {
        assert_eq!(parse_byte_size("65536"), Some(65536));
        assert_eq!(parse_byte_size("8K"), Some(8 << 10));
        assert_eq!(parse_byte_size("512M"), Some(512 << 20));
        assert_eq!(parse_byte_size("2g"), Some(2 << 30));
        assert_eq!(parse_byte_size("nope"), None);
        assert_eq!(parse_byte_size(""), None);
        let cfg = storage_config(&flags(&[("store-budget", "1M")], &[])).unwrap();
        assert_eq!(cfg.store_budget, Some(1 << 20));
        let err = storage_config(&flags(&[("store-budget", "lots")], &[])).unwrap_err();
        assert!(err.to_string().contains("store-budget"), "{err}");
    }

    #[test]
    fn model_import_then_export_round_trips_through_a_state_dir() {
        let dir = std::env::temp_dir().join(format!("marioh-cli-model-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let state = dir.to_string_lossy().into_owned();
        // Train a model with the existing `train` command...
        let h_path = tmp("h_model_cli.txt");
        let model_path = tmp("m_model_cli.txt");
        run(
            "generate",
            &flags(&[("dataset", "Hosts"), ("out", &h_path)], &["reduced"]),
        )
        .unwrap();
        run(
            "train",
            &flags(&[("source", &h_path), ("model", &model_path)], &[]),
        )
        .unwrap();
        // ...import it under a name, export it back, and reload it.
        let report = run(
            "model-import",
            &flags(
                &[
                    ("state-dir", &state),
                    ("name", "hosts-v1"),
                    ("model", &model_path),
                ],
                &[],
            ),
        )
        .unwrap();
        assert!(report.contains("hosts-v1"), "{report}");
        let exported = tmp("m_model_cli_back.txt");
        let report = run(
            "model-export",
            &flags(
                &[
                    ("state-dir", &state),
                    ("name", "hosts-v1"),
                    ("out", &exported),
                ],
                &[],
            ),
        )
        .unwrap();
        assert!(report.contains("exported"), "{report}");
        let back = marioh_core::TrainedModel::load(&exported).unwrap();
        assert_eq!(back.feature_mode(), FeatureMode::Multiplicity);
        // Unknown references are config errors, not panics.
        assert!(run(
            "model-export",
            &flags(
                &[
                    ("state-dir", &state),
                    ("name", "missing"),
                    ("out", &exported)
                ],
                &[]
            )
        )
        .is_err());
        assert!(run(
            "model-export",
            &flags(
                &[("state-dir", &state), ("job", "999"), ("out", &exported)],
                &[]
            )
        )
        .is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_rejects_invalid_configuration() {
        for (key, value, needle) in [
            ("workers", "0", "workers"),
            ("workers", "many", "--workers"),
            ("queue-cap", "0", "queue capacity"),
            ("job-timeout", "0", "job timeout"),
            ("job-timeout", "soon", "--job-timeout"),
            ("shard-timeout", "0", "shard timeout"),
            ("shard-timeout", "never", "--shard-timeout"),
            // A malformed fault spec is rejected before the server
            // boots. Only the rejection path is exercised here: arming
            // a *valid* plan would poison every other test in this
            // process (the plan registry is process-global by design).
            ("faults", "store.fsync:boom@nth:1", "unknown fault action"),
        ] {
            let err = run("serve", &flags(&[(key, value)], &["smoke"])).unwrap_err();
            assert!(err.to_string().contains(needle), "{key}={value}: {err}");
        }
        // An unbindable address surfaces as the I/O variant (exit 3).
        let err = run("serve", &flags(&[("addr", "not-an-address")], &["smoke"])).unwrap_err();
        assert!(matches!(err, MariohError::Io(_)), "{err}");
    }

    #[test]
    fn stats_and_errors() {
        let h_path = tmp("h2.txt");
        run(
            "generate",
            &flags(
                &[("dataset", "crime"), ("out", &h_path), ("scale", "0.5")],
                &[],
            ),
        )
        .unwrap();
        let out = run("stats", &flags(&[("hypergraph", &h_path)], &[])).unwrap();
        assert!(out.contains("|E_H|"));

        assert!(run("bogus", &Flags::default()).is_err());
        assert!(run(
            "generate",
            &flags(&[("dataset", "nope"), ("out", "/tmp/x")], &[])
        )
        .is_err());
        assert!(run("eval", &Flags::default()).is_err());
        assert!(run(
            "train",
            &flags(
                &[
                    ("source", &h_path),
                    ("model", &tmp("m.txt")),
                    ("features", "bad")
                ],
                &[]
            )
        )
        .is_err());
    }
}
