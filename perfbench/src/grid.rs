//! The benchmark's workloads: each is a grid of real suite cells run
//! through `SuiteRunner::run` with one worker, at paper scale.

use sgxgauge_core::{ExecMode, InputSetting, RunnerConfig, SuiteRunner, Workload};

/// One benchmark workload: a (mode, setting) slice over a few suite
/// workloads.
#[derive(Debug)]
pub struct Grid {
    /// Name given to `--workload`.
    pub name: &'static str,
    /// Execution mode of every cell.
    pub mode: ExecMode,
    /// Input setting of every cell.
    pub setting: InputSetting,
    /// Suite workloads, in grid order.
    pub workloads: &'static [&'static str],
}

/// Every grid `--workload` accepts; `BENCHMARK.json` gates `libos-boot`
/// and `native-paging`. Why each was chosen is in the README.
pub const GRIDS: [Grid; 3] = [
    // LibOS launch (≈1 M start-up evictions per cell) dominates.
    Grid {
        name: "libos-boot",
        mode: ExecMode::LibOs,
        setting: InputSetting::Low,
        workloads: &["Blockchain", "BFS", "Lighttpd", "XSBench", "Memcached"],
    },
    // EPC-resident scalar `Env` -> `SgxMachine::access` -> mem-sim path.
    Grid {
        name: "native-resident",
        mode: ExecMode::Native,
        setting: InputSetting::Low,
        workloads: &["PageRank", "HashJoin"],
    },
    // Bulk accesses, crypto and EPC paging inside `execute`.
    Grid {
        name: "native-paging",
        mode: ExecMode::Native,
        setting: InputSetting::High,
        workloads: &["OpenSSL", "BFS"],
    },
];

impl Grid {
    /// Looks a grid up by its `--workload` name.
    pub fn find(name: &str) -> Option<&'static Grid> {
        GRIDS.iter().find(|g| g.name == name)
    }

    /// The grid's suite workloads at paper scale, in grid order.
    ///
    /// # Panics
    ///
    /// Panics when a listed name is not in the suite: the list above is
    /// a constant, so that is a bug in this file.
    pub fn workloads(&self) -> Vec<Box<dyn Workload>> {
        let mut suite = sgxgauge_workloads::suite();
        self.workloads
            .iter()
            .map(|name| {
                let at = suite
                    .iter()
                    .position(|w| w.name() == *name)
                    .unwrap_or_else(|| panic!("`{name}` is not a suite workload"));
                suite.swap_remove(at)
            })
            .collect()
    }

    /// The sweep `sgxgauge suite --jobs 1` would run over this grid.
    pub fn runner(&self) -> SuiteRunner {
        SuiteRunner::new(RunnerConfig::paper(1))
            .modes(&[self.mode])
            .settings(&[self.setting])
            .threads(1)
    }
}
