//! Saving and loading trained MARIOH models — the unified persistence
//! format shared by the CLI (`marioh train` / `marioh model
//! export/import`) and the artifact store of `marioh-store`.
//!
//! A trained model is the classifier weights, the feature scaler and the
//! feature mode — enough to reconstruct any same-domain projected graph
//! later or on another machine (the transfer setting of Table V without
//! retraining). Plain-text format, no external serialisation crates.
//!
//! # Format
//!
//! The file opens with a single versioned header line, followed by the
//! scaler and MLP records:
//!
//! ```text
//! marioh-model v2 <mode> [rng <s0> <s1> <s2> <s3>]
//! scaler …
//! mlp …
//! ```
//!
//! The optional `rng` tail is the generator state captured right after
//! training ([`SavedModel::rng_state`]): a job that reuses this model can
//! resume the donor's RNG stream and reproduce its reconstruction
//! bit-for-bit. Version `v1` files (no version discipline beyond the
//! literal, no RNG state) are still read; writers always emit
//! [`MODEL_FORMAT_VERSION`]. Bumping the version constant requires a
//! migration note — see `crates/store/FORMATS.md` (enforced by CI and a
//! unit test there).
//!
//! All errors are [`MariohError`]: corruption is
//! [`MariohError::ModelFormat`], transport failures are
//! [`MariohError::Io`] — so the CLI's exit codes (1 vs 3) fall out of the
//! variant, not out of string matching.

use crate::error::MariohError;
use crate::features::FeatureMode;
use crate::model::TrainedModel;
use marioh_ml::{Mlp, StandardScaler};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Version written into every model header. Readers accept `1..=2`.
///
/// Changing this constant is an on-disk format change: add a migration
/// note to `crates/store/FORMATS.md` (CI fails otherwise).
pub const MODEL_FORMAT_VERSION: u32 = 2;

fn corrupt(msg: impl Into<String>) -> MariohError {
    MariohError::ModelFormat(msg.into())
}

/// A model as it sits in a file or in the artifact store: the
/// [`TrainedModel`] itself plus the optional post-training RNG state that
/// makes transfer runs bit-reproducible.
#[derive(Debug, Clone)]
pub struct SavedModel {
    /// The classifier, scaler, and feature mode.
    pub model: TrainedModel,
    /// Generator state captured immediately after training, if the
    /// producer recorded it (the job server does; `marioh train` does
    /// not need to).
    pub rng_state: Option<[u64; 4]>,
}

impl SavedModel {
    /// Wraps a model with no recorded RNG state.
    pub fn bare(model: TrainedModel) -> Self {
        SavedModel {
            model,
            rng_state: None,
        }
    }

    /// Writes the versioned header, scaler and MLP to a writer.
    ///
    /// # Errors
    ///
    /// [`MariohError::Io`] on write failures.
    pub fn write_to<W: Write>(&self, writer: W) -> Result<(), MariohError> {
        let mut out = BufWriter::new(writer);
        write!(
            out,
            "marioh-model v{MODEL_FORMAT_VERSION} {}",
            self.model.feature_mode().tag()
        )?;
        if let Some(s) = self.rng_state {
            write!(out, " rng {} {} {} {}", s[0], s[1], s[2], s[3])?;
        }
        writeln!(out)?;
        self.model.scaler.write_to(&mut out)?;
        self.model.mlp.write_to(&mut out)?;
        out.flush()?;
        Ok(())
    }

    /// The [`SavedModel::write_to`] encoding as bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut bytes = Vec::new();
        self.write_to(&mut bytes)
            .expect("writing a model to a Vec cannot fail");
        bytes
    }

    /// Reads a model written by [`SavedModel::write_to`] (or the legacy
    /// `v1` layout, which carries no RNG state).
    ///
    /// # Errors
    ///
    /// [`MariohError::ModelFormat`] for corrupt or mismatched files,
    /// [`MariohError::Io`] for transport failures.
    pub fn read_from<R: Read>(reader: R) -> Result<Self, MariohError> {
        let mut input = BufReader::new(reader);
        let mut header = String::new();
        input.read_line(&mut header).map_err(MariohError::Io)?;
        let mut tokens = header.split_ascii_whitespace();
        if tokens.next() != Some("marioh-model") {
            return Err(corrupt("not a marioh model file"));
        }
        let version: u32 = tokens
            .next()
            .and_then(|v| v.strip_prefix('v'))
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| corrupt("malformed model version"))?;
        if version == 0 || version > MODEL_FORMAT_VERSION {
            return Err(corrupt(format!(
                "unsupported model format version v{version} (this build reads v1..=v{MODEL_FORMAT_VERSION})"
            )));
        }
        let mode = tokens
            .next()
            .and_then(FeatureMode::from_tag)
            .ok_or_else(|| corrupt("unknown feature mode"))?;
        let rng_state = match tokens.next() {
            None => None,
            Some("rng") if version >= 2 => {
                let mut s = [0u64; 4];
                for slot in &mut s {
                    *slot = tokens
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| corrupt("malformed rng state in model header"))?;
                }
                Some(s)
            }
            Some(other) => return Err(corrupt(format!("unexpected header token {other:?}"))),
        };
        if tokens.next().is_some() {
            return Err(corrupt("trailing tokens in model header"));
        }
        let scaler =
            StandardScaler::read_from_buf(&mut input).map_err(MariohError::from_model_io)?;
        let mlp = Mlp::read_from_buf(&mut input).map_err(MariohError::from_model_io)?;
        if mlp.input_dim() != mode.dim() || scaler.dim() != mode.dim() {
            return Err(corrupt("model dimensions inconsistent with feature mode"));
        }
        Ok(SavedModel {
            model: TrainedModel::new(mlp, scaler, mode),
            rng_state,
        })
    }

    /// Saves to a file path (see [`SavedModel::write_to`]).
    ///
    /// # Errors
    ///
    /// [`MariohError::Io`] when the file cannot be created or written.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), MariohError> {
        self.write_to(std::fs::File::create(path)?)
    }

    /// Loads from a file path (see [`SavedModel::read_from`]).
    ///
    /// # Errors
    ///
    /// [`MariohError::Io`] for missing/unreadable files,
    /// [`MariohError::ModelFormat`] for corrupt ones.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self, MariohError> {
        Self::read_from(std::fs::File::open(path)?)
    }
}

impl TrainedModel {
    /// Writes the model (feature mode, scaler, MLP) to a writer in the
    /// current [`MODEL_FORMAT_VERSION`], without RNG state.
    ///
    /// # Errors
    ///
    /// [`MariohError::Io`] on write failures.
    pub fn write_to<W: Write>(&self, writer: W) -> Result<(), MariohError> {
        SavedModel::bare(self.clone()).write_to(writer)
    }

    /// Reads a model written by [`TrainedModel::write_to`] or
    /// [`SavedModel::write_to`] (any supported version; RNG state, if
    /// present, is dropped — use [`SavedModel::read_from`] to keep it).
    ///
    /// # Errors
    ///
    /// [`MariohError::ModelFormat`] for corrupt files, [`MariohError::Io`]
    /// for transport failures.
    pub fn read_from<R: Read>(reader: R) -> Result<Self, MariohError> {
        Ok(SavedModel::read_from(reader)?.model)
    }

    /// Saves the model to a file path.
    ///
    /// # Errors
    ///
    /// [`MariohError::Io`] when the file cannot be created or written.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), MariohError> {
        self.write_to(std::fs::File::create(path)?)
    }

    /// Loads a model from a file path.
    ///
    /// # Errors
    ///
    /// [`MariohError::Io`] for missing/unreadable files,
    /// [`MariohError::ModelFormat`] for corrupt ones.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self, MariohError> {
        Self::read_from(std::fs::File::open(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::{train_classifier, TrainingConfig};
    use marioh_hypergraph::{hyperedge::edge, projection::project, Hypergraph, NodeId};
    use rand::{rngs::StdRng, SeedableRng};

    fn trained() -> (TrainedModel, Hypergraph) {
        let mut h = Hypergraph::new(0);
        for b in 0..15u32 {
            h.add_edge(edge(&[b * 3, b * 3 + 1, b * 3 + 2]));
            h.add_edge(edge(&[b * 3, b * 3 + 1]));
        }
        let mut rng = StdRng::seed_from_u64(0);
        (
            train_classifier(&h, &TrainingConfig::default(), &mut rng),
            h,
        )
    }

    #[test]
    fn round_trip_preserves_scores() {
        let (model, h) = trained();
        let g = project(&h);
        let mut buf = Vec::new();
        model.write_to(&mut buf).unwrap();
        let back = TrainedModel::read_from(buf.as_slice()).unwrap();
        assert_eq!(back.feature_mode(), model.feature_mode());
        for clique in [
            vec![NodeId(0), NodeId(1), NodeId(2)],
            vec![NodeId(0), NodeId(1)],
        ] {
            assert_eq!(model.score(&g, &clique), back.score(&g, &clique));
        }
    }

    #[test]
    fn file_round_trip() {
        let (model, _) = trained();
        let path = std::env::temp_dir().join("marioh-model-test.txt");
        model.save(&path).unwrap();
        let back = TrainedModel::load(&path).unwrap();
        assert_eq!(back.feature_mode(), FeatureMode::Multiplicity);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_corrupt_files() {
        assert!(TrainedModel::read_from("garbage".as_bytes()).is_err());
        assert!(TrainedModel::read_from("marioh-model v1 nonsense\n".as_bytes()).is_err());
    }

    #[test]
    fn saved_model_preserves_rng_state_and_header_is_versioned() {
        let (model, _) = trained();
        let saved = SavedModel {
            model,
            rng_state: Some([1, 2, 3, u64::MAX]),
        };
        let mut buf = Vec::new();
        saved.write_to(&mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        let header = text.lines().next().unwrap();
        assert_eq!(
            header,
            format!(
                "marioh-model v{MODEL_FORMAT_VERSION} multiplicity rng 1 2 3 {}",
                u64::MAX
            )
        );
        let back = SavedModel::read_from(buf.as_slice()).unwrap();
        assert_eq!(back.rng_state, Some([1, 2, 3, u64::MAX]));
        // The plain reader drops the state but still accepts the file.
        let plain = TrainedModel::read_from(buf.as_slice()).unwrap();
        assert_eq!(plain.feature_mode(), FeatureMode::Multiplicity);
    }

    #[test]
    fn legacy_v1_files_are_still_read() {
        let (model, _) = trained();
        let mut buf = Vec::new();
        model.write_to(&mut buf).unwrap();
        let v2 = String::from_utf8(buf).unwrap();
        let v1 = v2.replacen(
            &format!("marioh-model v{MODEL_FORMAT_VERSION} "),
            "marioh-model v1 ",
            1,
        );
        let back = SavedModel::read_from(v1.as_bytes()).unwrap();
        assert_eq!(back.rng_state, None);
        assert_eq!(back.model.feature_mode(), model.feature_mode());
    }

    /// The saved model's lines with the first value of line `at`
    /// replaced by `value`.
    fn with_first_value(at: impl Fn(&[&str]) -> usize, value: &str) -> String {
        let (model, _) = trained();
        let mut buf = Vec::new();
        model.write_to(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        let i = at(&lines);
        let edited = lines[i].replacen(lines[i].split(' ').next().unwrap(), value, 1);
        lines[i] = &edited;
        lines.join("\n") + "\n"
    }

    #[test]
    fn non_finite_weights_are_a_model_format_error() {
        // The first weight of the last layer: the line after the last
        // `layer` header.
        let last_weights = |lines: &[&str]| {
            1 + lines
                .iter()
                .rposition(|l| l.starts_with("layer "))
                .expect("layers")
        };
        for value in ["NaN", "inf", "-inf"] {
            let err = TrainedModel::read_from(with_first_value(last_weights, value).as_bytes())
                .expect_err("non-finite weight");
            assert!(matches!(err, MariohError::ModelFormat(_)), "{value}: {err}");
        }
    }

    #[test]
    fn non_positive_std_is_a_model_format_error() {
        // Line 3 holds the scaler's standard deviations (after the model
        // header, the scaler header and the means).
        for value in ["0", "-1.5", "NaN"] {
            let err = TrainedModel::read_from(with_first_value(|_| 3, value).as_bytes())
                .expect_err("bad std");
            assert!(matches!(err, MariohError::ModelFormat(_)), "{value}: {err}");
        }
    }

    #[test]
    fn error_variants_distinguish_corruption_from_transport() {
        let err = TrainedModel::load(std::env::temp_dir().join("marioh-no-such-model.txt"))
            .expect_err("missing file");
        assert!(matches!(err, MariohError::Io(_)), "{err}");
        let err = TrainedModel::read_from("garbage".as_bytes()).expect_err("corrupt");
        assert!(matches!(err, MariohError::ModelFormat(_)), "{err}");
        // A future version is corruption from this build's perspective,
        // with a message naming both versions.
        let future = format!("marioh-model v{} multiplicity\n", MODEL_FORMAT_VERSION + 1);
        let err = TrainedModel::read_from(future.as_bytes()).expect_err("future version");
        assert!(err.to_string().contains("unsupported"), "{err}");
    }
}
