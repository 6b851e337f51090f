//! Fig. 6: runtime breakdown of MARIOH vs SHyRe-Count per dataset
//! (train / filtering / bidirectional-search stages).

use super::ExperimentEnv;
use crate::plot::{write_svg, BarChart};
use crate::runner::cell_rng;
use crate::table::Table;
use marioh_baselines::shyre::{ShyreFlavor, ShyreSupervised};
use marioh_baselines::Reconstructor;
use marioh_core::{Marioh, MariohConfig, TrainingConfig};
use marioh_datasets::split::split_source_target;
use marioh_datasets::PaperDataset;
use marioh_hypergraph::projection::project;
use std::path::Path;
use std::time::Instant;

/// Per-dataset stage timings collected for the stacked charts.
#[derive(Default)]
struct Breakdown {
    names: Vec<String>,
    marioh: [Vec<f64>; 3], // train / filtering / bidirectional
    shyre: [Vec<f64>; 2],  // train / inference
}

/// Regenerates Fig. 6's stage breakdown as a table. When `svg_dir` is
/// given, also renders one stacked bar chart per method.
pub fn run(env: &ExperimentEnv, datasets: &[PaperDataset], svg_dir: Option<&Path>) -> Table {
    let mut t = Table::new(vec![
        "Dataset",
        "MARIOH train (s)",
        "MARIOH filtering (s)",
        "MARIOH bidirectional (s)",
        "SHyRe-Count train (s)",
        "SHyRe-Count inference (s)",
    ]);
    let mut breakdown = Breakdown::default();
    for &d in datasets {
        let data = env.dataset(d);
        eprintln!("[fig6] dataset {} ...", data.name);
        let reduced = data.hypergraph.reduce_multiplicity();
        let mut split_rng = cell_rng(data.name, "split", 0);
        let (source, target) = split_source_target(&reduced, &mut split_rng);
        if source.unique_edge_count() == 0 || target.unique_edge_count() == 0 {
            continue;
        }
        let g = project(&target);

        // MARIOH with stage timers.
        let mut rng = cell_rng(data.name, "fig6-marioh", 0);
        let t0 = Instant::now();
        let model = Marioh::train(&source, &TrainingConfig::default(), &mut rng);
        let train_secs = t0.elapsed().as_secs_f64();
        let (_, report) = model.reconstruct_with_report(&g, &MariohConfig::default(), &mut rng);

        // SHyRe-Count.
        let mut rng = cell_rng(data.name, "fig6-shyre", 0);
        let t0 = Instant::now();
        let shyre = ShyreSupervised::train(ShyreFlavor::Count, &source, &mut rng);
        let shyre_train = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let _ = shyre.reconstruct(&g, &mut rng).expect("not cancelled");
        let shyre_inf = t0.elapsed().as_secs_f64();

        t.add_row(vec![
            data.name.to_owned(),
            format!("{train_secs:.3}"),
            format!("{:.3}", report.filtering_secs),
            format!("{:.3}", report.search_secs),
            format!("{shyre_train:.3}"),
            format!("{shyre_inf:.3}"),
        ]);
        breakdown.names.push(data.name.to_owned());
        breakdown.marioh[0].push(train_secs);
        breakdown.marioh[1].push(report.filtering_secs);
        breakdown.marioh[2].push(report.search_secs);
        breakdown.shyre[0].push(shyre_train);
        breakdown.shyre[1].push(shyre_inf);
    }
    if let Some(dir) = svg_dir {
        if !breakdown.names.is_empty() {
            let [m_train, m_filter, m_search] = breakdown.marioh;
            let marioh_chart = BarChart {
                title: "Fig. 6: MARIOH runtime breakdown".into(),
                y_label: "seconds".into(),
                categories: breakdown.names.clone(),
                series: vec![
                    ("Train".into(), m_train),
                    ("Filtering".into(), m_filter),
                    ("Bidirectional".into(), m_search),
                ],
                stacked: true,
                log_y: false,
            };
            let [s_train, s_inf] = breakdown.shyre;
            let shyre_chart = BarChart {
                title: "Fig. 6: SHyRe-Count runtime breakdown".into(),
                y_label: "seconds".into(),
                categories: breakdown.names,
                series: vec![("Train".into(), s_train), ("Inference".into(), s_inf)],
                stacked: true,
                log_y: false,
            };
            for (name, chart) in [
                ("fig6_marioh.svg", marioh_chart),
                ("fig6_shyre_count.svg", shyre_chart),
            ] {
                let path = dir.join(name);
                if let Err(e) = write_svg(&path, &chart.to_svg()) {
                    eprintln!("[fig6] could not write {}: {e}", path.display());
                }
            }
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::HarnessConfig;
    use std::time::Duration;

    #[test]
    fn breakdown_runs_on_a_small_dataset_and_writes_svgs() {
        let env = ExperimentEnv::new(HarnessConfig {
            scale: Some(0.1),
            seeds: 1,
            budget: Duration::from_secs(120),
        });
        let dir = std::env::temp_dir().join("marioh_fig6_test");
        let t = run(&env, &[PaperDataset::Crime], Some(&dir));
        assert_eq!(t.len(), 1);
        assert!(t.render().contains("Crime"));
        for name in ["fig6_marioh.svg", "fig6_shyre_count.svg"] {
            let svg = std::fs::read_to_string(dir.join(name)).expect(name);
            assert!(svg.starts_with("<svg"), "{name} is not an SVG");
            assert!(svg.contains("Crime"));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
