//! The `suite` workload: every experiment of the registry (what
//! `experiments::run_all` runs), with the tables rendered to text and
//! JSON, on min(2, nproc) campaign threads.
//!
//! Set-up makes a 1-thread reference pass and checks every table's bound
//! and claim columns; every unit's rendered output must equal it byte for
//! byte.

use std::num::NonZeroUsize;
use std::time::Instant;

use selfstab_analysis::campaign;
use selfstab_analysis::experiments::{self, ExperimentConfig};
use selfstab_analysis::ExperimentTable;
use selfstab_runtime::telemetry::metrics;

use crate::cells::derive;
use crate::{quantile, Bench, Tracer, UnitOutcome};

pub struct Suite {
    config: ExperimentConfig,
    reference: String,
    claims_ok: bool,
    /// Campaign cells in one pass, counted in the reference pass.
    cells: u64,
}

/// Runs every registered experiment; `on_table` sees each runner's wall
/// time. Same order and calls as `experiments::run_all`.
fn run_tables(
    config: &ExperimentConfig,
    mut on_table: impl FnMut(&str, f64),
) -> Vec<ExperimentTable> {
    experiments::registry()
        .into_iter()
        .map(|e| {
            let started = Instant::now();
            let table = (e.runner)(config);
            on_table(e.id, started.elapsed().as_secs_f64());
            table
        })
        .collect()
}

/// The tables as the `experiments` binary prints them, in text and JSON.
fn render(tables: &[ExperimentTable]) -> String {
    let mut out = String::new();
    for table in tables {
        out.push_str(&table.to_text());
        out.push('\n');
    }
    for table in tables {
        out.push_str(&table.to_json());
        out.push('\n');
    }
    out
}

/// Checks the columns of every table that state a bound or a claim; a
/// table with no such column fails.
pub fn check_claims(tables: &[ExperimentTable]) -> Result<(), String> {
    for table in tables {
        let mut checked = 0;
        for (col, header) in table.headers.iter().enumerate() {
            let cells = table.rows.iter().map(|row| row[col].trim());
            let holds = |ok: &dyn Fn(&str) -> bool| -> Result<(), String> {
                match cells.clone().find(|cell| !ok(cell)) {
                    Some(cell) => Err(format!("{}: column {header:?} holds {cell:?}", table.id)),
                    None => Ok(()),
                }
            };
            match header.as_str() {
                "within bound"
                | "bound satisfied"
                | "violates predicate"
                | "silent"
                | "MIS in every silent config"
                | "maximal matching in every silent config" => holds(&|c| c == "true")?,
                "ever escaped" => holds(&|c| c == "false")?,
                "timeouts" => holds(&|c| c == "0")?,
                "oracle ok" | "leader+tree ok" => {
                    holds(&|c| c.split_once('/').is_some_and(|(a, b)| a == b && a != "0"))?
                }
                _ => continue,
            }
            checked += 1;
        }
        // E1 and E11 state their claims in measured columns.
        let col = |name: &str| table.headers.iter().position(|h| h == name);
        if let (Some(protocol), Some(k)) = (col("protocol"), col("measured k")) {
            for row in &table.rows {
                if row[protocol].ends_with("1-efficient") && row[k].trim() != "1" {
                    return Err(format!(
                        "{}: {} measured k = {}",
                        table.id, row[protocol], row[k]
                    ));
                }
            }
            checked += 1;
        }
        if let (Some(knob), Some(bound), Some(measured)) =
            (col("knob"), col("bound"), col("measured"))
        {
            for row in table
                .rows
                .iter()
                .filter(|row| row[knob].trim() == "identifiers")
            {
                let rounds: f64 = row[measured]
                    .split_whitespace()
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(f64::INFINITY);
                let bound: f64 = row[bound].trim().parse().unwrap_or(0.0);
                if rounds > bound {
                    return Err(format!(
                        "{}: measured {rounds} rounds above bound {bound}",
                        table.id
                    ));
                }
            }
            checked += 1;
        }
        if checked == 0 {
            return Err(format!("{}: no bound or claim column found", table.id));
        }
    }
    Ok(())
}

fn campaign_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, NonZeroUsize::get)
        .min(2)
}

impl Bench for Suite {
    const NOMINAL_UNIT_S: f64 = 0.6;
    const SETUP_REPS: usize = 5;
    const SINGLE_THREADED: bool = false;
    const SELF_TIMES: &'static [&'static str] = &[
        "experiments.E1_s",
        "experiments.E2_s",
        "experiments.E3_s",
        "experiments.E4_s",
        "experiments.E5_s",
        "experiments.E6_s",
        "experiments.E7-E8_s",
        "experiments.E9_s",
        "experiments.E10_s",
        "experiments.E11_s",
        "experiments.E12_s",
        "experiments.E13_s",
        "experiments.E14_s",
        "table.render_s",
    ];

    fn setup(seed: u64) -> Result<(Self, f64), String> {
        let config = ExperimentConfig {
            base_seed: derive(seed, 1),
            ..ExperimentConfig::default()
        };
        // The campaign counts its cells only while metrics are on.
        metrics::set_enabled(true);
        campaign::clear_cell_duration_samples();
        let tables = run_tables(&config.with_threads(1), |_, _| {});
        let cells = campaign::cell_duration_samples().len() as u64;
        metrics::set_enabled(false);
        campaign::clear_cell_duration_samples();
        let claims = check_claims(&tables);
        if let Err(err) = &claims {
            eprintln!("perfbench: suite claim failed: {err}");
        }
        let suite = Suite {
            config: config.with_threads(campaign_threads()),
            reference: render(&tables),
            claims_ok: claims.is_ok(),
            cells,
        };
        Ok((suite, 0.0))
    }

    fn unit(&self, mut tracer: Option<&mut Tracer>) -> UnitOutcome {
        let mut out = UnitOutcome::default();
        if tracer.is_some() {
            metrics::set_enabled(true);
            campaign::clear_cell_duration_samples();
        }
        let started = Instant::now();
        let tables = run_tables(&self.config, |id, seconds| {
            out.latencies_ms.push(seconds * 1e3);
            if let Some(t) = tracer.as_deref_mut() {
                t.spans
                    .record(format!("experiment {id}"), t.parent, seconds, &[]);
            }
        });
        let rendering = Instant::now();
        let output = render(&tables);
        let render_s = rendering.elapsed().as_secs_f64();
        out.seconds = started.elapsed().as_secs_f64();
        out.extra_ms.push(render_s * 1e3);
        out.work = self.cells;
        out.attempted = 1;
        out.failed = u64::from(!(self.claims_ok && output == self.reference));
        out.digest = vec![output.len() as u64];
        if let Some(t) = tracer {
            metrics::set_enabled(false);
            let samples = campaign::cell_duration_samples();
            campaign::clear_cell_duration_samples();
            t.spans.record(
                "table.render",
                t.parent,
                render_s,
                &[("bytes", output.len() as f64)],
            );
            for (entry, ms) in experiments::registry().iter().zip(&out.latencies_ms) {
                let metric = format!("experiments.{}_s", entry.id.replace('/', "-"));
                let name = *Self::SELF_TIMES
                    .iter()
                    .find(|name| **name == metric)
                    .unwrap_or_else(|| panic!("experiment {} has no per-layer metric", entry.id));
                out.layers.insert(name, ms / 1e3);
            }
            let cells_s: f64 = samples.iter().sum();
            let cells_ms: Vec<f64> = samples.iter().map(|s| s * 1e3).collect();
            out.layers.insert("campaign.cells", samples.len() as f64);
            out.layers
                .insert("campaign.cell_p50_ms", quantile(&cells_ms, 0.5));
            out.layers
                .insert("campaign.cell_p99_ms", quantile(&cells_ms, 0.99));
            out.layers.insert(
                "campaign.busy_share",
                cells_s / (self.config.threads as f64 * out.seconds),
            );
            out.layers.insert("table.render_s", render_s);
            out.layers.insert("table.bytes", output.len() as f64);
        }
        out
    }
}
