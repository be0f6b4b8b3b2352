//! The two simulator workloads: a full paper-suite pass and a forked
//! sweep grid. Both are seed-free: every scenario and sweep point fixes
//! its own simulation seed, so `--seed` changes nothing here.

use latlab_bench::sweep::{run_sweep_grid, SweepMetric, SweepParam, SweepPoint, SweepStats};
use latlab_bench::{run_scenarios, scenarios, EngineConfig, ScenarioRun};
use latlab_os::OsProfile;

use crate::stats::Tracer;
use crate::Workload;

/// Shape checks a full pass must run (and pass).
const SUITE_CHECKS: usize = 93;

/// One sequential pass over every experiment, the way `repro` runs it
/// without artifacts or recording.
pub fn suite_pass() -> Vec<ScenarioRun> {
    let ids: Vec<String> = scenarios::ALL_IDS.iter().map(|s| s.to_string()).collect();
    let cfg = EngineConfig {
        jobs: 1,
        ..EngineConfig::default()
    };
    run_scenarios(&ids, &cfg, |_| {})
}

/// Renders every report of a pass, in order, as `repro` prints them.
pub fn render(runs: &[ScenarioRun]) -> String {
    runs.iter()
        .flat_map(|r| r.reports())
        .map(|r| r.render())
        .collect()
}

/// Checks a pass: no scenario failed and every shape check passed.
fn check_pass(runs: &[ScenarioRun]) -> Result<(), String> {
    if let Some(bad) = runs.iter().find_map(|r| r.failure().map(|f| (&r.id, f))) {
        return Err(format!("scenario {} failed: {}", bad.0, bad.1));
    }
    let checks: usize = runs.iter().map(ScenarioRun::total_checks).sum();
    let failed: usize = runs.iter().map(ScenarioRun::failed_checks).sum();
    if checks != SUITE_CHECKS || failed != 0 {
        return Err(format!(
            "{failed} of {checks} shape checks failed (expected {SUITE_CHECKS} passing)"
        ));
    }
    Ok(())
}

/// `paper-suite`: one op is one pass over all 17 experiments plus the
/// render of every report.
pub struct PaperSuite {
    reference: String,
    last: Option<(Vec<ScenarioRun>, String)>,
}

impl PaperSuite {
    /// Set-up: a warm-up pass whose rendered bytes every later pass must
    /// reproduce.
    pub fn setup() -> Result<PaperSuite, String> {
        let runs = suite_pass();
        check_pass(&runs)?;
        Ok(PaperSuite {
            reference: render(&runs),
            last: None,
        })
    }
}

impl Workload for PaperSuite {
    fn op(&mut self, tracer: Option<&mut Tracer>) -> Result<(), String> {
        self.last = Some(match tracer {
            None => {
                let runs = suite_pass();
                let text = render(&runs);
                (runs, text)
            }
            Some(t) => {
                let runs = t.span("bench.pass_ms", suite_pass);
                for r in &runs {
                    t.record(
                        &format!("bench.scenario_ms.{}", r.id),
                        r.wall.as_secs_f64() * 1e3,
                    );
                }
                let text = t.span("bench.render_ms", || render(&runs));
                (runs, text)
            }
        });
        Ok(())
    }

    fn check(&mut self) -> Result<(), String> {
        let (runs, text) = self.last.take().ok_or("no pass to check")?;
        check_pass(&runs)?;
        if text != self.reference {
            return Err("pass rendered different bytes than the first pass".to_owned());
        }
        Ok(())
    }
}

/// The sweep grid both the workload and the layer replay use: every
/// sweepable parameter at ½, ¾, 1, 2 and 4 × its stock value.
pub const SWEEP_OS: OsProfile = OsProfile::Nt351;
pub const SWEEP_METRIC: SweepMetric = SweepMetric::WordKeystrokeMs;
pub const SWEEP_REPS: usize = 5;

pub fn sweep_columns() -> Vec<(SweepParam, Vec<u64>)> {
    SweepParam::ALL
        .into_iter()
        .map(|p| {
            let stock = p.stock(SWEEP_OS);
            let mut values = vec![stock / 2, stock * 3 / 4, stock, stock * 2, stock * 4];
            values.retain(|&v| v > 0);
            values.dedup();
            (p, values)
        })
        .collect()
}

/// One forked grid sweep, sequential.
pub fn sweep_grid(columns: &[(SweepParam, Vec<u64>)]) -> (Vec<Vec<SweepPoint>>, SweepStats) {
    run_sweep_grid(SWEEP_OS, SWEEP_METRIC, columns, SWEEP_REPS, 1)
}

/// `sweep-grid`: one op is one forked grid sweep; its points must be
/// bit-identical to a from-scratch (`--no-fork`) reference.
pub struct SweepGrid {
    columns: Vec<(SweepParam, Vec<u64>)>,
    reference: Vec<Vec<u64>>,
    last: Option<(Vec<Vec<SweepPoint>>, SweepStats)>,
}

fn point_bits(grid: &[Vec<SweepPoint>]) -> Vec<Vec<u64>> {
    grid.iter()
        .map(|col| col.iter().map(|p| p.metric.to_bits()).collect())
        .collect()
}

impl SweepGrid {
    /// Set-up: the scratch reference grid, then one forked warm-up grid
    /// checked against it.
    pub fn setup() -> Result<SweepGrid, String> {
        let columns = sweep_columns();
        let reference = {
            let _scratch = latlab_bench::forkcfg::override_default(false);
            point_bits(&sweep_grid(&columns).0)
        };
        let mut grid = SweepGrid {
            columns,
            reference,
            last: None,
        };
        grid.op(None)?;
        grid.check()?;
        Ok(grid)
    }
}

impl Workload for SweepGrid {
    fn op(&mut self, tracer: Option<&mut Tracer>) -> Result<(), String> {
        self.last = Some(match tracer {
            None => sweep_grid(&self.columns),
            Some(t) => {
                let out = t.span("sweep.grid_ms", || sweep_grid(&self.columns));
                crate::layers::record_sweep_stats(t, &out.1);
                out
            }
        });
        Ok(())
    }

    fn check(&mut self) -> Result<(), String> {
        let (points, stats) = self.last.take().ok_or("no sweep to check")?;
        let points_total: usize = self.columns.iter().map(|(_, v)| v.len()).sum();
        if stats.forked_points + stats.scratch_points != points_total {
            return Err(format!(
                "sweep covered {stats:?}, expected {points_total} points"
            ));
        }
        if point_bits(&points) != self.reference {
            return Err("forked sweep diverged from the scratch reference".to_owned());
        }
        Ok(())
    }
}
