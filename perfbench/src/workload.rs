//! The benchmark's workloads: which registry configs each one runs, how the
//! `--seed` argument rewrites their seeds, and how every run's output is
//! checked.

use mmptcp::metrics::report::ScenarioReport;
use mmptcp::netsim::{Addr, SimDuration, SimRng};
use mmptcp::scenario::{self, Fidelity};
use mmptcp::workload::paper_workload;
use mmptcp::{ExperimentConfig, ExperimentResults, WorkloadSpec};
use std::collections::HashMap;

/// One named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A fixed subset of whole cells of the fast battle-matrix on the
    /// parallel driver: many short packet-engine runs.
    Battle,
    /// The Figure 1(b) cell (MPTCP-8) at full fidelity: one long packet run.
    Fig1Long,
    /// The 16 000-flow fast rung of mega-load-sweep: one hybrid-engine run.
    /// The 104 000-flow top rung spread 25-45% from run to run on a shared
    /// 2-core host, too wide to gate on.
    Mega,
}

/// Which seeds the configs run with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Seed {
    /// Each scenario's own pinned seeds: outputs are compared with the
    /// recorded expected reports.
    Pinned,
    /// Every pinned seed is replaced by one derived from this value.
    Derived(u64),
}

/// Battle-matrix cells kept in the `battle` workload: the seed-1 half of the
/// fast grid, which keeps all five variants, both flow-size CDFs and both
/// loads. The whole grid (40 runs, ~45 s on two cores) does not fit the
/// benchmark's run budget.
fn battle_cell(label: &str) -> bool {
    label.ends_with(" seed=1")
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] = [Workload::Battle, Workload::Fig1Long, Workload::Mega];

    /// Parse a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Battle => "battle",
            Workload::Fig1Long => "fig1-long",
            Workload::Mega => "mega",
        }
    }

    /// The registry scenario and fidelity the configs come from.
    pub fn source(self) -> (&'static str, Fidelity) {
        match self {
            Workload::Battle => ("battle-matrix", Fidelity::Fast),
            Workload::Fig1Long => ("fig1bc", Fidelity::Full),
            Workload::Mega => ("mega-load-sweep", Fidelity::Fast),
        }
    }

    /// The report the pinned-seed runs must reproduce, relative to the
    /// repository root. `fig1-long` has no golden at full fidelity, so its
    /// expected report was recorded once and is kept with the benchmark.
    pub fn expected_path(self) -> &'static str {
        match self {
            Workload::Battle => "tests/golden/battle-matrix.json",
            Workload::Fig1Long => "perfbench/expected/fig1-long.json",
            Workload::Mega => "tests/golden/mega-load-sweep.json",
        }
    }

    /// Copies of the config set a derived seed gives, each with its own
    /// seeds. A pass sums them, which averages out how much work one seed
    /// gives a config. `battle` already sums 20 cells; one `mega` run costs
    /// up to twice another's depending on its packet-level dynamics alone,
    /// so it gets many.
    fn derived_inputs(self) -> u64 {
        match self {
            Workload::Battle => 1,
            Workload::Fig1Long => 3,
            Workload::Mega => 16,
        }
    }

    /// The inputs a run cycles through: the pinned configs, or
    /// `derived_inputs` config sets derived from the seed.
    pub fn inputs(self, seed: Seed) -> Vec<Vec<(String, ExperimentConfig)>> {
        match seed {
            Seed::Pinned => vec![self.configs(seed)],
            Seed::Derived(n) => (0..self.derived_inputs())
                .map(|i| self.configs(Seed::Derived(derive_seed(n, i))))
                .collect(),
        }
    }

    /// The labelled configs this workload runs.
    pub fn configs(self, seed: Seed) -> Vec<(String, ExperimentConfig)> {
        let (name, fidelity) = self.source();
        let all = scenario::find(name)
            .expect("benchmark scenario is in the catalog")
            .configs(fidelity);
        let mut configs: Vec<_> = match self {
            Workload::Battle => all.into_iter().filter(|(l, _)| battle_cell(l)).collect(),
            Workload::Fig1Long => all
                .into_iter()
                .filter(|(l, _)| l.starts_with("mptcp-8"))
                .collect(),
            Workload::Mega => all
                .into_iter()
                .filter(|(l, _)| l.ends_with("16000 flows"))
                .collect(),
        };
        assert!(!configs.is_empty(), "{}: no configs selected", self.name());
        if let Seed::Derived(n) = seed {
            for (i, (_, cfg)) in configs.iter_mut().enumerate() {
                // Cells share their pinned seed (`battle` keeps seed 1 only),
                // so the cell's index goes in too: every cell gets its own
                // draw, and a pass sums independent draws, not one repeated.
                let derived = derive_seed(derive_seed(n, i as u64), cfg.seed);
                // mega's MMPTCP flows draw their packet-scatter ports from the
                // engine seed; the others' transports draw nothing from it, so
                // they need new placements for the seed to change anything.
                let placement = (self != Workload::Mega).then_some(derived);
                pin_flows(cfg, placement);
                cfg.seed = derived;
                cfg.max_sim_time = cfg.max_sim_time.min(self.derived_horizon());
            }
        }
        configs
    }

    /// Simulated time a derived-seed run is cut at. Pinned runs go to
    /// completion, as their recordings did; but how long a run takes to
    /// complete hinges on its largest flow and its slowest retransmission,
    /// which swings the work of one seed against another fourfold. A fixed
    /// horizon gives every seed the same span of traffic to simulate.
    /// `battle`'s short flows arrive from 100 ms (the long flows' head start)
    /// to about 330 ms, so its horizon takes in their first 150 ms; `mega`'s
    /// 15 001 flows all arrive within its first 6 ms.
    fn derived_horizon(self) -> SimDuration {
        match self {
            Workload::Battle => SimDuration::from_millis(250),
            Workload::Fig1Long => SimDuration::from_millis(1000),
            Workload::Mega => SimDuration::from_millis(50),
        }
    }

    /// The canonical report of a set of results.
    pub fn report(self, results: &[(String, ExperimentResults)]) -> ScenarioReport {
        let (name, fidelity) = self.source();
        scenario::report(name, fidelity, results)
    }
}

/// A config seed derived from the benchmark seed `n` and the pinned seed
/// (splitmix64), so different benchmark seeds give unrelated schedules.
fn derive_seed(n: u64, pinned: u64) -> u64 {
    let mut z = n
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(pinned)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Replace the generated workload by the pinned seed's own flows (same
/// sizes and start times), moved onto hosts permuted by `placement` if given.
fn pin_flows(cfg: &mut ExperimentConfig, placement: Option<u64>) {
    let hosts: Vec<Addr> = (0..cfg.topology.build().host_count() as u32)
        .map(Addr)
        .collect();
    let WorkloadSpec::Paper(paper) = &cfg.workload else {
        panic!("benchmark workloads use the paper workload generator");
    };
    // The stream `mmptcp::run` draws the workload from.
    let mut rng = SimRng::new(cfg.seed).fork(0xBEEF);
    let mut flows = paper_workload(&hosts, paper, &mut rng).flows;
    if let Some(seed) = placement {
        let mut order = hosts;
        SimRng::new(seed).shuffle(&mut order);
        for f in &mut flows {
            f.src = order[f.src.index()];
            f.dst = order[f.dst.index()];
        }
    }
    cfg.workload = WorkloadSpec::Custom(flows);
}

/// Split a canonical report document into its per-run entries, keyed by
/// label. Each entry is the exact text of the run object (without the comma
/// that separates it from the next), so entries compare byte for byte.
pub fn run_entries(doc: &str) -> Result<Vec<(String, String)>, String> {
    let mut entries = Vec::new();
    let mut current: Option<Vec<&str>> = None;
    for line in doc.lines() {
        if line == "    {" {
            current = Some(vec![line]);
        } else if let Some(lines) = current.as_mut() {
            if line.starts_with("    }") {
                lines.push("    }");
                let text = lines.join("\n");
                let label = lines
                    .iter()
                    .find_map(|l| l.trim_start().strip_prefix("\"label\": \""))
                    .and_then(|l| l.strip_suffix("\","))
                    .ok_or("report entry without a label")?
                    .to_string();
                entries.push((label, text));
                current = None;
            } else {
                lines.push(line);
            }
        }
    }
    if current.is_some() {
        return Err("unterminated report entry".into());
    }
    Ok(entries)
}

/// What every run's output is checked against.
pub enum Expected {
    /// Pinned seeds: each run's report entry must equal the recorded one.
    Recorded(HashMap<String, String>),
    /// Derived seeds: no recording exists; runs are checked for
    /// conservation and for determinism against a re-run.
    None,
}

impl Expected {
    /// Load the expected report entries for a pinned-seed run.
    pub fn load(workload: Workload, seed: Seed) -> Result<Expected, String> {
        if seed != Seed::Pinned {
            return Ok(Expected::None);
        }
        let path = workload.expected_path();
        let doc = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        Ok(Expected::Recorded(run_entries(&doc)?.into_iter().collect()))
    }

    /// Check one pass: every result must conserve packets and bytes and, for
    /// pinned seeds, reproduce its recorded report entry. Returns one message
    /// per failed run (empty when all passed).
    pub fn check(
        &self,
        results: &[(String, ExperimentResults)],
        entries: &[(String, String)],
    ) -> Vec<String> {
        let mut failures = Vec::new();
        for ((label, r), (entry_label, entry)) in results.iter().zip(entries) {
            debug_assert_eq!(label, entry_label);
            if let Err(e) = r.check_conservation() {
                failures.push(format!("{label}: {e}"));
            } else if let Expected::Recorded(map) = self {
                match map.get(entry_label) {
                    None => failures.push(format!("{label}: no recorded report entry")),
                    Some(want) if want != entry => {
                        let diff = mmptcp::metrics::report::diff(want, entry).unwrap_or_default();
                        failures.push(format!(
                            "{label}: report differs from the recording\n{diff}"
                        ));
                    }
                    Some(_) => {}
                }
            }
        }
        failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn battle_subset_keeps_every_variant_and_both_cdfs() {
        let configs = Workload::Battle.configs(Seed::Pinned);
        assert_eq!(configs.len(), 20);
        for cdf in ["web-search", "data-mining"] {
            for variant in [
                "tcp |",
                "mptcp-8 |",
                "mmptcp-8 |",
                "repflow |",
                "tcp+diffflow |",
            ] {
                assert!(
                    configs
                        .iter()
                        .any(|(l, _)| l.starts_with(variant) && l.contains(cdf)),
                    "missing {variant} {cdf}"
                );
            }
        }
    }

    #[test]
    fn derived_seeds_differ_from_pinned_and_between_cells() {
        let pinned = Workload::Battle.configs(Seed::Pinned);
        let derived = Workload::Battle.configs(Seed::Derived(7));
        assert_eq!(derived, Workload::Battle.configs(Seed::Derived(7)));
        for ((_, p), (_, d)) in pinned.iter().zip(&derived) {
            assert_ne!(p.seed, d.seed);
        }
        let distinct: std::collections::HashSet<u64> =
            derived.iter().map(|(_, d)| d.seed).collect();
        assert_eq!(
            distinct.len(),
            derived.len(),
            "cells must get their own seeds"
        );
        assert_ne!(derive_seed(7, 1), derive_seed(7, 2));
        assert_ne!(derive_seed(7, 1), derive_seed(8, 1));
    }

    #[test]
    fn golden_documents_split_into_labelled_entries() {
        let doc = std::fs::read_to_string("../tests/golden/mega-load-sweep.json").unwrap();
        let entries = run_entries(&doc).unwrap();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[2].0, "mmptcp-8 hybrid | 104000 flows");
        assert!(entries[2].1.ends_with("    }"));
        assert!(doc.contains(&entries[0].1));
    }
}
