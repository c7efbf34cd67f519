//! `perfbench` — the repository benchmark: three workloads, end-to-end
//! metrics from an untraced run, per-layer metrics from a traced run.
//!
//! ```text
//! perfbench --workload tcp-walk|tcp-frontdoor-rw|sim-geo8 --seed <n> \
//!     --seconds <s> --trace 0|1 --node-bin <rbay-node> --out-dir <dir> \
//!     [--rev <rev>] [--sut-cpus <list>] [--smoke]
//! ```
//!
//! `perfbench/run.py` builds the daemon and this binary and passes the
//! paths. Every metric is printed as a row (`rev`, `cores`, `seed`,
//! workload, fleet shape, clock, `reps`, `median`, `min`, `max`); the last
//! line is `{"correct", "attempted", "failed", "metrics"}`. The exit code
//! is 1 when a correctness check failed and 2 when the run could not be
//! set up (no result line then).

mod fleet;
mod layers;
mod report;
mod sim;
mod tcp;
mod trace;

use report::{Clock, Outcome, RowContext};
use std::io::Write as _;
use std::path::PathBuf;

/// End-to-end metrics (untraced run), in output order.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("ops_per_s", "ops/s"),
    ("cpu_us_per_op", "us"),
    ("rss_mb", "MiB"),
];

/// Per-layer metrics (traced run), in output order. A layer a workload
/// does not exercise reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("pastry.converge_s", "s"),
    ("pastry.hops_mean", "hops"),
    ("pastry.hops_model", "hops"),
    ("pastry.route_msgs_per_query", "count"),
    ("scribe.attach_s", "s"),
    ("scribe.agg_updates_per_s", "1/s"),
    ("simnet.events_per_query", "count"),
    ("simnet.wall_ns_per_event", "ns"),
    ("simnet.msgs_per_query", "count"),
    ("simnet.bytes_per_query", "bytes"),
    ("simnet.cross_site_msgs_per_query", "count"),
    ("bus.cpu_us_per_op", "us"),
    ("bus.wakeups_per_op", "count"),
    ("bus.drops", "count"),
    ("bus.drops_unresolvable", "count"),
    ("bus.drops_outbound_full", "count"),
    ("bus.drops_write_cap", "count"),
    ("bus.drops_connect_exhausted", "count"),
    ("bus.drops_conn_closed", "count"),
    ("codec.query_frame_bytes", "bytes"),
    ("codec.encode_us", "us"),
    ("codec.decode_us", "us"),
    ("pack.cpu_us_per_op", "us"),
    ("pack.wakeups_per_op", "count"),
    ("pack.busy_frac_max", "ratio"),
    ("pack.ping_p50_ms", "ms"),
    ("pack.ping_p99_ms", "ms"),
    ("ctrl.release_p50_ms", "ms"),
    ("ctrl.release_p99_ms", "ms"),
    ("frontdoor.hit_ratio", "ratio"),
    ("frontdoor.coalesced_per_read", "ratio"),
    ("frontdoor.shed_per_read", "ratio"),
    ("frontdoor.evictions_per_read", "ratio"),
    ("frontdoor.invalidations_per_write", "ratio"),
    ("frontdoor.key_us", "us"),
    ("frontdoor.late_commits", "count"),
    ("query.parse_us", "us"),
    ("aascript.onget_us", "us"),
    ("store.appends_per_op", "ratio"),
    ("store.wal_bytes_per_write", "bytes"),
    ("store.dedup_skips_per_write", "ratio"),
    ("store.snapshots", "count"),
    ("store.append_us", "us"),
    ("store.flush_us", "us"),
    ("loadgen.cpu_frac", "ratio"),
    ("query_p99_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("write_p99_ms", "ms"),
    ("ops_failed_frac", "ratio"),
    ("stale_reads", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
];

/// Settings of one run.
pub struct RunCfg {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub node_bin: PathBuf,
    pub out_dir: PathBuf,
    pub rev: String,
    /// Closed-loop clients: one per core.
    pub clients: usize,
    /// CPUs the daemons are pinned to (`taskset -c`), if any.
    pub sut_cpus: Option<String>,
    pub smoke: bool,
}

/// Cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Kong et al.'s expected hop count for prefix routing with base-2^b
/// digits (b = 4, as in `pastry`): each of the `log_16 N` resolved digits
/// costs a hop unless it already matches, which happens with probability
/// 1/16.
pub fn kong_hops(n: f64) -> f64 {
    let base = 16.0f64;
    (1.0 - 1.0 / base) * n.max(1.0).ln() / base.ln()
}

/// Writes the traced run's spans and prints/writes its per-layer
/// summary (self time and count per op for each span name).
pub fn write_trace(cfg: &RunCfg, spans: &[trace::Span], ops: u64) -> Result<(), String> {
    let stem = format!("{}-seed{}", cfg.workload, cfg.seed);
    let path = cfg.out_dir.join(format!("spans-{stem}.tsv"));
    trace::write_spans(&path, spans).map_err(|e| format!("write {}: {e}", path.display()))?;
    let lines = trace::summary_lines(&trace::summarize(spans), ops);
    let path = cfg.out_dir.join(format!("layers-{stem}.jsonl"));
    std::fs::write(&path, lines.join("\n") + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    for l in &lines {
        println!("{l}");
    }
    Ok(())
}

fn parse_args() -> Result<RunCfg, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = RunCfg {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        node_bin: PathBuf::new(),
        out_dir: PathBuf::from(".bench_out"),
        rev: "unknown".into(),
        clients: cores(),
        sut_cpus: None,
        smoke: false,
    };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--smoke" {
            cfg.smoke = true;
            i += 1;
            continue;
        }
        let val = argv
            .get(i + 1)
            .ok_or_else(|| format!("missing value for {flag}"))?
            .clone();
        let bad = |e: &dyn std::fmt::Display| format!("bad value for {flag}: {e}");
        match flag {
            "--workload" => cfg.workload = val,
            "--seed" => cfg.seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => cfg.seconds = val.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                cfg.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"want 0 or 1")),
                }
            }
            "--node-bin" => cfg.node_bin = PathBuf::from(val),
            "--out-dir" => cfg.out_dir = PathBuf::from(val),
            "--rev" => cfg.rev = val,
            "--sut-cpus" => cfg.sut_cpus = Some(val),
            _ => return Err(format!("unknown flag {flag}")),
        }
        i += 2;
    }
    if cfg.seconds.is_nan() || cfg.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(cfg)
}

/// Fills in the metrics a workload does not report (0) and fixes the
/// output order and units to the benchmark's list.
fn normalize(out: &mut Outcome, trace: bool) {
    let list = if trace { PER_LAYER } else { END_TO_END };
    let mut taken = std::mem::take(&mut out.metrics);
    for &(name, unit) in list {
        let pos = taken.iter().position(|m| m.name == name);
        let mut m = match pos {
            Some(p) => taken.swap_remove(p),
            None => report::Metric {
                name,
                unit,
                clock: Clock::Wall,
                reps: Vec::new(),
            },
        };
        assert_eq!(m.unit, unit, "unit of {name}");
        m.unit = unit;
        out.metrics.push(m);
    }
    if let Some(extra) = taken.first() {
        panic!("metric {} is not in the benchmark's list", extra.name);
    }
}

fn main() {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", cfg.out_dir.display());
        std::process::exit(2);
    }
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let smoke = cfg.smoke;
    let (fleet, result) = match cfg.workload.as_str() {
        "tcp-walk" | "tcp-frontdoor-rw" => {
            let w = tcp::TcpWorkload {
                frontdoor_rw: cfg.workload == "tcp-frontdoor-rw",
                agents: if smoke { 96 } else { 1000 },
                per: if smoke { 24 } else { 250 },
                setup_reps: if smoke || cfg.trace { 1 } else { 5 },
                base_port: 24_100,
                tick_ms: 150,
            };
            let shape = format!(
                "{} agents in {} daemons x {} (cpus {}), 1 site, {} clients{}",
                w.agents,
                w.agents.div_ceil(w.per),
                w.per,
                cfg.sut_cpus.as_deref().unwrap_or("any"),
                cfg.clients,
                if w.frontdoor_rw {
                    ", front door, data dir (fsync batch)"
                } else {
                    ""
                }
            );
            (shape, w.run(&cfg, &mut out))
        }
        "sim-geo8" => {
            let w = sim::SimWorkload {
                nodes_per_site: if smoke { 16 } else { 250 },
                setup_reps: if smoke || cfg.trace { 1 } else { 5 },
            };
            let shape = format!(
                "{} nodes in 8 sites (Table II RTTs), {} q/s open loop",
                w.nodes_per_site * 8,
                sim::RATE_PER_S
            );
            (shape, w.run(&cfg, &mut out))
        }
        other => (
            String::new(),
            Err(format!(
                "unknown workload {other:?} (want tcp-walk, tcp-frontdoor-rw or sim-geo8)"
            )),
        ),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
    normalize(&mut out, cfg.trace);
    let ctx = RowContext {
        rev: cfg.rev.clone(),
        cores: cfg.clients,
        seed: cfg.seed,
        workload: cfg.workload.clone(),
        fleet,
        trace: cfg.trace,
    };
    let rows = report::rows(&ctx, &out);
    let rows_path = cfg.out_dir.join(format!(
        "rows-{}-seed{}-trace{}.jsonl",
        cfg.workload,
        cfg.seed,
        u8::from(cfg.trace)
    ));
    if let Err(e) = std::fs::write(&rows_path, rows.join("\n") + "\n") {
        eprintln!("perfbench: cannot write {}: {e}", rows_path.display());
    }
    for v in out.violations.iter().take(20) {
        eprintln!("perfbench: CHECK FAILED: {v}");
    }
    if out.violations.len() > 20 {
        eprintln!(
            "perfbench: ... {} failed checks in all",
            out.violations.len()
        );
    }
    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    for r in &rows {
        let _ = writeln!(lock, "{r}");
    }
    let _ = writeln!(lock, "{}", report::result_line(&out));
    let _ = lock.flush();
    drop(lock);
    if !out.correct {
        std::process::exit(1);
    }
}
