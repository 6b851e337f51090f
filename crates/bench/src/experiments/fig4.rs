//! Fig. 4: hyperparameter sensitivity of MARIOH (α, r, θ_init) in both
//! evaluation settings.

use super::{ExperimentEnv, Setting};
use crate::plot::{write_svg, LinePlot, Series};
use crate::runner::cell_rng;
use crate::table::Table;
use marioh_baselines::Reconstructor;
use marioh_core::{MariohConfig, Pipeline, Variant};
use marioh_datasets::split::split_source_target;
use marioh_datasets::PaperDataset;
use marioh_hypergraph::metrics::{jaccard, multi_jaccard};
use marioh_hypergraph::projection::project;
use std::path::Path;

/// Datasets swept in the sensitivity study (small, fast ones).
pub const SWEEP_DATASETS: [PaperDataset; 3] = [
    PaperDataset::Enron,
    PaperDataset::Crime,
    PaperDataset::Hosts,
];

/// One sensitivity score for a given configuration.
fn score(env: &ExperimentEnv, d: PaperDataset, cfg: &MariohConfig, setting: Setting) -> f64 {
    let data = env.dataset(d);
    let effective = match setting {
        Setting::MultiplicityReduced => data.hypergraph.reduce_multiplicity(),
        Setting::MultiplicityPreserved => data.hypergraph.clone(),
    };
    let mut split_rng = cell_rng(data.name, "split", 0);
    let (source, target) = split_source_target(&effective, &mut split_rng);
    let mut rng = cell_rng(data.name, "fig4", 0);
    let method = Pipeline::builder()
        .variant(Variant::Full)
        .build()
        .expect("paper defaults are valid")
        .train(&source, &mut rng)
        .expect("split sources are non-empty")
        .with_config(cfg.clone()); // the sweep's raw config, unvalidated on purpose
    let rec = method
        .reconstruct(&project(&target), &mut rng)
        .expect("not cancelled");
    match setting {
        Setting::MultiplicityReduced => jaccard(&target, &rec),
        Setting::MultiplicityPreserved => multi_jaccard(&target, &rec),
    }
}

/// One hyperparameter sweep: measures all (value, dataset) cells, returns
/// the table and optionally writes the corresponding line plot.
#[allow(clippy::too_many_arguments)] // one knob per sweep axis; bundling would obscure
fn sweep(
    env: &ExperimentEnv,
    setting: Setting,
    metric: &str,
    param: &str,
    values: &[f64],
    fmt_value: &dyn Fn(f64) -> String,
    make_cfg: &dyn Fn(f64) -> MariohConfig,
    svg_dir: Option<&Path>,
) -> Table {
    let mut t = Table::new(vec![
        format!("{param} ({metric})"),
        "Enron".into(),
        "Crime".into(),
        "Hosts".into(),
    ]);
    let mut series: Vec<Series> = SWEEP_DATASETS
        .iter()
        .map(|d| Series::new(format!("{d:?}"), Vec::new()))
        .collect();
    for &v in values {
        let mut row = vec![fmt_value(v)];
        for (di, &d) in SWEEP_DATASETS.iter().enumerate() {
            let s = score(env, d, &make_cfg(v), setting);
            series[di].points.push((v, s));
            row.push(format!("{s:.3}"));
        }
        t.add_row(row);
        eprintln!("[fig4] {param} sweep row done");
    }
    if let Some(dir) = svg_dir {
        let suffix = match setting {
            Setting::MultiplicityReduced => "reduced",
            Setting::MultiplicityPreserved => "preserved",
        };
        let plot = LinePlot {
            title: format!("Fig. 4: sensitivity to {param} ({suffix})"),
            x_label: param.to_owned(),
            y_label: metric.to_owned(),
            log_x: false,
            log_y: false,
            series,
        };
        let path = dir.join(format!("fig4_{param}_{suffix}.svg"));
        if let Err(e) = write_svg(&path, &plot.to_svg()) {
            eprintln!("[fig4] could not write {}: {e}", path.display());
        }
    }
    t
}

/// Runs the three sweeps (α, r, θ_init) for one setting. When `svg_dir`
/// is given, also renders one line plot per sweep into it.
pub fn run(env: &ExperimentEnv, setting: Setting, svg_dir: Option<&Path>) -> Vec<Table> {
    let metric = match setting {
        Setting::MultiplicityReduced => "Jaccard",
        Setting::MultiplicityPreserved => "multi-Jaccard",
    };
    vec![
        sweep(
            env,
            setting,
            metric,
            "alpha",
            &[1.0 / 5.0, 1.0 / 15.0, 1.0 / 25.0, 1.0 / 35.0],
            &|a| format!("1/{:.0}", 1.0 / a),
            &|a| MariohConfig {
                alpha: a,
                ..MariohConfig::default()
            },
            svg_dir,
        ),
        sweep(
            env,
            setting,
            metric,
            "r",
            &[20.0, 40.0, 60.0, 80.0, 100.0],
            &|r| format!("{r:.0}"),
            &|r| MariohConfig {
                neg_ratio: r,
                ..MariohConfig::default()
            },
            svg_dir,
        ),
        sweep(
            env,
            setting,
            metric,
            "theta_init",
            &[0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
            &|t| format!("{t:.1}"),
            &|t| MariohConfig {
                theta_init: t,
                ..MariohConfig::default()
            },
            svg_dir,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::HarnessConfig;
    use std::time::Duration;

    #[test]
    fn single_score_runs() {
        let env = ExperimentEnv::new(HarnessConfig {
            scale: Some(0.1),
            seeds: 1,
            budget: Duration::from_secs(60),
        });
        let s = score(
            &env,
            PaperDataset::Crime,
            &MariohConfig::default(),
            Setting::MultiplicityReduced,
        );
        assert!((0.0..=1.0).contains(&s));
    }
}
