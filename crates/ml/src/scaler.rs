//! Per-feature standardisation (zero mean, unit variance).

/// A fitted standard scaler: `x' = (x − mean) / std`.
///
/// Features with zero variance pass through unshifted-scale (std treated
/// as 1) so constant features do not produce NaNs.
#[derive(Debug, Clone)]
pub struct StandardScaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl StandardScaler {
    /// Fits a scaler to the rows of `xs`.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample or ragged rows.
    pub fn fit(xs: &[Vec<f64>]) -> Self {
        assert!(!xs.is_empty(), "cannot fit a scaler to no data");
        let d = xs[0].len();
        let n = xs.len() as f64;
        let mut means = vec![0.0; d];
        for x in xs {
            assert_eq!(x.len(), d, "ragged feature rows");
            for (m, v) in means.iter_mut().zip(x) {
                *m += v;
            }
        }
        for m in means.iter_mut() {
            *m /= n;
        }
        let mut vars = vec![0.0; d];
        for x in xs {
            for ((va, v), m) in vars.iter_mut().zip(x).zip(&means) {
                let dlt = v - m;
                *va += dlt * dlt;
            }
        }
        let stds = vars
            .into_iter()
            .map(|v| {
                let s = (v / n).sqrt();
                if s < 1e-12 {
                    1.0
                } else {
                    s
                }
            })
            .collect();
        StandardScaler { means, stds }
    }

    /// Number of features this scaler was fitted on.
    pub fn dim(&self) -> usize {
        self.means.len()
    }

    /// Transforms one feature vector in place.
    pub fn transform_in_place(&self, x: &mut [f64]) {
        assert_eq!(x.len(), self.means.len(), "feature dimension mismatch");
        for ((v, m), s) in x.iter_mut().zip(&self.means).zip(&self.stds) {
            *v = (*v - m) / s;
        }
    }

    /// Returns a transformed copy of one feature vector.
    pub fn transform(&self, x: &[f64]) -> Vec<f64> {
        let mut out = x.to_vec();
        self.transform_in_place(&mut out);
        out
    }

    /// Transforms a batch, returning new rows.
    pub fn transform_batch(&self, xs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        xs.iter().map(|x| self.transform(x)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standardises_mean_and_variance() {
        let xs = vec![vec![1.0, 10.0], vec![3.0, 10.0], vec![5.0, 10.0]];
        let scaler = StandardScaler::fit(&xs);
        let t = scaler.transform_batch(&xs);
        let mean0: f64 = t.iter().map(|r| r[0]).sum::<f64>() / 3.0;
        assert!(mean0.abs() < 1e-12);
        let var0: f64 = t.iter().map(|r| r[0] * r[0]).sum::<f64>() / 3.0;
        assert!((var0 - 1.0).abs() < 1e-12);
        // Constant feature stays finite (and zero-centred).
        assert!(t.iter().all(|r| r[1] == 0.0));
    }

    #[test]
    fn transform_is_affine() {
        let xs = vec![vec![0.0], vec![2.0]];
        let scaler = StandardScaler::fit(&xs);
        let a = scaler.transform(&[0.0])[0];
        let b = scaler.transform(&[2.0])[0];
        let mid = scaler.transform(&[1.0])[0];
        assert!((mid - (a + b) / 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "feature dimension mismatch")]
    fn rejects_wrong_dim() {
        let scaler = StandardScaler::fit(&[vec![1.0, 2.0]]);
        scaler.transform(&[1.0]);
    }
}

// --- persistence ---------------------------------------------------------

impl StandardScaler {
    /// Writes the scaler as two text lines (means, stds).
    pub fn write_to<W: std::io::Write>(&self, writer: W) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(writer);
        use std::io::Write as _;
        let means: Vec<String> = self.means.iter().map(|v| format!("{v:e}")).collect();
        let stds: Vec<String> = self.stds.iter().map(|v| format!("{v:e}")).collect();
        writeln!(out, "scaler {}", self.means.len())?;
        writeln!(out, "{}", means.join(" "))?;
        writeln!(out, "{}", stds.join(" "))?;
        out.flush()
    }

    /// Reads a scaler written by [`StandardScaler::write_to`].
    pub fn read_from<R: std::io::Read>(reader: R) -> std::io::Result<Self> {
        Self::read_from_buf(&mut std::io::BufReader::new(reader))
    }

    /// Like [`StandardScaler::read_from`], but consumes exactly the
    /// scaler's three lines from a shared buffered reader (no
    /// look-ahead), so callers can concatenate several records.
    pub fn read_from_buf(reader: &mut dyn std::io::BufRead) -> std::io::Result<Self> {
        use std::io::{Error, ErrorKind};
        let bad = |msg: &str| Error::new(ErrorKind::InvalidData, msg.to_owned());
        let mut next_line = || -> std::io::Result<String> {
            let mut line = String::new();
            if reader.read_line(&mut line)? == 0 {
                return Err(Error::new(
                    ErrorKind::InvalidData,
                    "unexpected end of scaler data",
                ));
            }
            Ok(line.trim_end().to_owned())
        };
        let header = next_line()?;
        let dim: usize = header
            .strip_prefix("scaler ")
            .and_then(|s| s.trim().parse().ok())
            .ok_or_else(|| bad("malformed scaler header"))?;
        let parse_row = |line: String| -> std::io::Result<Vec<f64>> {
            let vals: Vec<f64> = line
                .split_ascii_whitespace()
                .map(|t| t.parse::<f64>())
                .collect::<Result<_, _>>()
                .map_err(|_| bad("bad scaler value"))?;
            if vals.iter().any(|v| !v.is_finite()) {
                return Err(bad("non-finite scaler value"));
            }
            if vals.len() != dim {
                return Err(bad("scaler row length mismatch"));
            }
            Ok(vals)
        };
        let means = parse_row(next_line()?)?;
        let stds = parse_row(next_line()?)?;
        if stds.iter().any(|&s| s <= 0.0) {
            return Err(bad("non-positive std"));
        }
        Ok(StandardScaler { means, stds })
    }
}

#[cfg(test)]
mod persistence_tests {
    use super::*;

    #[test]
    fn scaler_round_trip() {
        let scaler = StandardScaler::fit(&[vec![1.0, -2.0], vec![3.0, 4.0], vec![5.0, 1.0]]);
        let mut buf = Vec::new();
        scaler.write_to(&mut buf).unwrap();
        let back = StandardScaler::read_from(buf.as_slice()).unwrap();
        assert_eq!(scaler.transform(&[2.0, 2.0]), back.transform(&[2.0, 2.0]));
    }

    #[test]
    fn scaler_rejects_corrupt_input() {
        assert!(StandardScaler::read_from("x".as_bytes()).is_err());
        assert!(StandardScaler::read_from("scaler 2\n1.0\n1.0 1.0".as_bytes()).is_err());
    }
}
