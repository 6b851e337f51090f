//! Appendix case studies: Hosts (host–virus) and Crime.
//!
//! The paper's Fig. 2 walks through the DBLP case study (see
//! [`super::fig2`]); its online appendix repeats the exercise on the
//! Host–virus and Crime datasets. Both are small affiliation-style
//! hypergraphs, so besides the hub's ego sub-hypergraph we also report
//! whole-dataset reconstruction quality for MARIOH vs SHyRe-Count.

use super::fig2::ego_subhypergraph;
use super::ExperimentEnv;
use crate::runner::{build_method, cell_rng};
use crate::table::Table;
use marioh_baselines::Reconstructor as _;
use marioh_datasets::split::split_source_target;
use marioh_datasets::PaperDataset;
use marioh_hypergraph::metrics::{jaccard, multi_jaccard};
use marioh_hypergraph::projection::project;

/// The appendix's two case-study datasets.
pub const CASE_DATASETS: [PaperDataset; 2] = [PaperDataset::Hosts, PaperDataset::Crime];

/// Methods contrasted in the case studies (as in Fig. 2).
const METHODS: [&str; 2] = ["SHyRe-Count", "MARIOH"];

/// Runs both case studies. Rows report, per (dataset, method), the
/// whole-target reconstruction quality plus quality on the hub's ego
/// sub-hypergraph, and whether the ego sub-hypergraph was recovered
/// exactly (the paper's headline for these figures).
pub fn run(env: &ExperimentEnv) -> Table {
    let mut t = Table::new(vec![
        "Dataset",
        "Method",
        "Jaccard (full)",
        "multi-J (full)",
        "Jaccard (ego)",
        "multi-J (ego)",
        "Ego exact?",
    ]);
    for d in CASE_DATASETS {
        let data = env.dataset(d);
        let mut split_rng = cell_rng(data.name, "split", 0);
        let (source, target) = split_source_target(&data.hypergraph, &mut split_rng);
        if source.unique_edge_count() == 0 || target.unique_edge_count() == 0 {
            continue;
        }
        let mut ego_rng = cell_rng(data.name, "case-ego", 0);
        let (hub, ego) = ego_subhypergraph(&target, &mut ego_rng);
        eprintln!(
            "[case] {}: hub {hub}, ego has {} hyperedges; target has {}",
            data.name,
            ego.unique_edge_count(),
            target.unique_edge_count()
        );
        let g_full = project(&target);
        let g_ego = project(&ego);
        for method in METHODS {
            let mut rng = cell_rng(data.name, method, 0);
            let Some(m) = build_method(method, &source, &mut rng) else {
                continue;
            };
            let rec_full = m.reconstruct(&g_full, &mut rng).expect("not cancelled");
            let rec_ego = m.reconstruct(&g_ego, &mut rng).expect("not cancelled");
            let ego_multi = multi_jaccard(&ego, &rec_ego);
            t.add_row(vec![
                data.name.to_owned(),
                method.to_owned(),
                format!("{:.3}", jaccard(&target, &rec_full)),
                format!("{:.3}", multi_jaccard(&target, &rec_full)),
                format!("{:.3}", jaccard(&ego, &rec_ego)),
                format!("{ego_multi:.3}"),
                if ego_multi >= 1.0 { "yes" } else { "no" }.to_owned(),
            ]);
            eprintln!("[case] {} / {method} done", data.name);
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
    fn case_studies_run_at_test_scale() {
        let env = ExperimentEnv::new(HarnessConfig {
            scale: Some(0.25),
            seeds: 1,
            budget: Duration::from_secs(120),
        });
        let t = run(&env);
        // Two datasets x two methods, unless a degenerate split dropped
        // one dataset.
        assert!(t.len() >= 2, "expected at least one full case study");
        let text = t.render();
        assert!(text.contains("MARIOH"));
        assert!(text.contains("SHyRe-Count"));
    }
}
