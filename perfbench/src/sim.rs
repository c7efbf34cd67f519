//! `sim-geo8`: the eight-site federation in the simulator.
//!
//! A `Federation` on the Table II topology, populated by
//! `populate_ec2_federation`. Composite `QueryGen` queries (1–8 sites)
//! arrive from every site at a fixed rate on the sim clock, as in the
//! `openloop` bin, in chunks; background maintenance (heartbeats,
//! aggregation) runs alongside. Each chunk is one repetition: its sim-clock
//! latencies, and the wall time the engine took to run it.

use crate::fleet::{hwm_mib, process_cpu_ns, thread_cpu_ns};
use crate::layers::Layers;
use crate::report::{median, quantile, Clock, Outcome};
use crate::trace::{self, Tracer, ROOT};
use crate::RunCfg;
use rbay_core::{Federation, QueryId, RbayConfig};
use rbay_query::{parse_query, AttrValue, FromClause, Query};
use rbay_workloads::{
    aws8_site_names, populate_ec2_federation, QueryGen, ScenarioConfig, WORKLOAD_PASSWORD,
};
use simnet::{NetStats, NodeAddr, SimDuration, SiteId, Topology};
use std::collections::HashMap;
use std::time::Instant;

/// Query arrivals per simulated second, summed over all sites.
pub const RATE_PER_S: u32 = 100;
/// Simulated seconds per chunk (one repetition).
const CHUNK_SIM_MS: u64 = 5_000;
/// Maintenance period on the sim clock.
const MAINT_MS: u64 = 1_000;
/// Candidates each query asks for.
const K: u32 = 2;
/// Sim-clock latency charged to a query that failed (it misses any limit).
const FAILED_QUERY_MS: f64 = 60_000.0;
/// Passive attributes per node (the composite queries read one).
const EXTRA_ATTRS: usize = 5;
/// Fewest members of its instance type the sites a query names must hold,
/// per 250 members per site.
const MIN_SUPPLY_PER_250: usize = 16;
/// Draws of a query before one is taken whatever its sites hold.
const MAX_DRAWS: usize = 64;

pub struct SimWorkload {
    pub nodes_per_site: usize,
    pub setup_reps: usize,
}

/// What one chunk measured.
struct Chunk {
    lat_ms: Vec<f64>,
    completed: usize,
    failed: usize,
    wall_s: f64,
    cpu_ns: u64,
    net: NetStats,
    sim_s: f64,
    /// Search-walk frame sizes (traced chunks).
    frame_bytes: Vec<f64>,
}

/// Arrival-process state carried across chunks.
struct Arrivals {
    qg: QueryGen,
    issued: u64,
    seq: HashMap<NodeAddr, u32>,
    /// Members of each instance type in each site (the population is
    /// static).
    supply: HashMap<String, Vec<usize>>,
    /// Fewest members of its type a query's FROM sites may hold.
    min_supply: usize,
}

impl Arrivals {
    fn new(fed: &Federation, seed: u64, min_supply: usize) -> Self {
        let topo = fed.sim().topology();
        let mut supply: HashMap<String, Vec<usize>> = HashMap::new();
        for a in (0..topo.node_count() as u32).map(NodeAddr) {
            if let Some(AttrValue::Str(t)) = fed.node(a).host.attrs.get("instance") {
                let per_site = supply
                    .entry(t.clone())
                    .or_insert_with(|| vec![0; topo.site_count()]);
                per_site[topo.site_of(a).0 as usize] += 1;
            }
        }
        Arrivals {
            qg: QueryGen::new(seed, aws8_site_names(), EXTRA_ATTRS).focus_popular(7, 15),
            issued: 0,
            seq: HashMap::new(),
            supply,
            min_supply,
        }
    }

    /// Members of the query's instance type in the sites it names.
    fn supply_of(&self, q: &Query, sites: &[String]) -> usize {
        let per_site = q
            .predicates
            .iter()
            .find(|p| p.attr == "instance")
            .and_then(|p| match &p.value {
                AttrValue::Str(t) => self.supply.get(t),
                _ => None,
            });
        let Some(per_site) = per_site else {
            return 0;
        };
        per_site
            .iter()
            .enumerate()
            .filter(|&(s, _)| in_from(q, SiteId(s as u16), sites))
            .map(|(_, n)| n)
            .sum()
    }

    /// The next composite query from `home` over `n_sites` sites. A draw
    /// whose sites hold fewer than `min_supply` members of its type is
    /// drawn again (up to `MAX_DRAWS` times), so that concurrent queries
    /// for one type do not hold every member of it at once.
    fn next(&mut self, home: SiteId, n_sites: usize, sites: &[String]) -> (String, Query) {
        let mut draws = 0;
        loop {
            let text = self.qg.composite(home, n_sites, K);
            let parsed = parse_query(&text).expect("generated query parses");
            draws += 1;
            if draws >= MAX_DRAWS || self.supply_of(&parsed, sites) >= self.min_supply {
                return (text, parsed);
            }
        }
    }
}

impl SimWorkload {
    fn build(&self, cfg: &RunCfg) -> Federation {
        let fed_cfg = RbayConfig {
            commit_results: false,
            ..RbayConfig::default()
        };
        let mut fed = Federation::with_config(
            Topology::aws_ec2_8_sites(self.nodes_per_site),
            cfg.seed,
            fed_cfg,
        );
        let scenario = ScenarioConfig {
            extra_attrs_per_node: EXTRA_ATTRS,
            ..ScenarioConfig::default()
        };
        populate_ec2_federation(&mut fed, cfg.seed ^ 0xA5A5, &scenario);
        fed.run_maintenance(5, SimDuration::from_millis(MAINT_MS));
        fed.settle();
        fed
    }

    /// Schedules one chunk of arrivals plus background maintenance, runs
    /// the engine until idle, and checks every answer.
    fn chunk(
        &self,
        fed: &mut Federation,
        arr: &mut Arrivals,
        layers: Option<&mut Layers>,
        tr: &mut Tracer,
        violations: &mut Vec<String>,
    ) -> Chunk {
        let n = (u64::from(RATE_PER_S) * CHUNK_SIM_MS / 1000) as usize;
        let gap_us = 1_000_000 / u64::from(RATE_PER_S);
        let net0 = fed.sim().stats().clone();
        let sim0 = fed.sim().now();
        let wall0 = Instant::now();
        let cpu0 = thread_cpu_ns();
        let chunk_id = arr.issued / n as u64;
        let span = tr.begin("sim.chunk", chunk_id, ROOT);
        let sites = aws8_site_names();
        let mut issued: Vec<(NodeAddr, QueryId, String, Query)> = Vec::with_capacity(n);
        for j in 0..n {
            let i = arr.issued as usize;
            arr.issued += 1;
            let home = SiteId((i % 8) as u16);
            let origins = fed.sim().topology().nodes_of_site(home);
            let origin = origins[2 + (i / 8) % (origins.len() - 2)];
            let (text, parsed) = arr.next(home, 1 + (i / 8) % 8, &sites);
            let seq = arr.seq.entry(origin).or_insert(0);
            let id = QueryId::new(origin, *seq);
            *seq += 1;
            let at = sim0 + SimDuration::from_micros(gap_us * j as u64);
            let q = parsed.clone();
            fed.sim_mut().schedule_call(at, origin, move |a, ctx| {
                a.host.now = ctx.now();
                a.host.issue_query(q, Some(WORKLOAD_PASSWORD.to_owned()));
                a.drain_ops(ctx);
            });
            issued.push((origin, id, text, parsed));
        }
        fed.schedule_maintenance(
            (CHUNK_SIM_MS / MAINT_MS) as u32,
            SimDuration::from_millis(MAINT_MS),
        );
        let run = tr.begin("sim.run", chunk_id, span);
        fed.settle();
        tr.end(run);
        let wall_s = wall0.elapsed().as_secs_f64();
        let cpu_ns = thread_cpu_ns().saturating_sub(cpu0);
        tr.end(span);

        let mut layers = layers;
        let mut out = Chunk {
            lat_ms: Vec::with_capacity(n),
            completed: 0,
            failed: 0,
            wall_s,
            cpu_ns,
            net: fed.sim().stats().since(&net0),
            sim_s: fed.sim().now().saturating_since(sim0).as_millis_f64() / 1e3,
            frame_bytes: Vec::new(),
        };
        for (origin, id, text, q) in &issued {
            let Some(rec) = fed.query_record(*origin, *id) else {
                violations.push(format!("no record for query {id:?} at {origin:?}"));
                out.failed += 1;
                continue;
            };
            let Some(done) = rec.completed_at else {
                out.failed += 1;
                out.lat_ms.push(FAILED_QUERY_MS);
                continue;
            };
            out.completed += 1;
            if !rec.satisfied || rec.result.len() != K as usize {
                eprintln!(
                    "perfbench: unsatisfied after {} attempt(s) with {} result(s), {} member(s) match: `{text}`",
                    rec.attempts,
                    rec.result.len(),
                    matching(fed, q, &sites)
                );
                out.failed += 1;
                out.lat_ms.push(FAILED_QUERY_MS);
                continue;
            }
            out.lat_ms
                .push(done.saturating_since(rec.issued_at).as_millis_f64());
            if let Some(why) = verify(fed, q, &rec.result, &sites) {
                violations.push(why);
                out.failed += 1;
            }
            if let Some(l) = layers.as_deref_mut() {
                let op = id.0;
                let root = tr.begin("op", op, ROOT);
                let (parsed, t) = l.parse(text);
                tr.record("query.parse", op, root, t.0, t.1);
                let (bytes, enc, dec) = l.codec(&parsed, *origin, &rec.result);
                out.frame_bytes.push(bytes as f64);
                tr.record("codec.encode", op, root, enc.0, enc.1);
                tr.record("codec.decode", op, root, dec.0, dec.1);
                let t = l.onget(*origin);
                tr.record("aascript.onget", op, root, t.0, t.1);
                tr.end(root);
            }
        }
        out
    }

    pub fn run(&self, cfg: &RunCfg, out: &mut Outcome) -> Result<(), String> {
        let mut setups = Vec::new();
        let mut fed = None;
        for _ in 0..self.setup_reps {
            drop(fed.take());
            let t0 = Instant::now();
            fed = Some(self.build(cfg));
            setups.push(t0.elapsed().as_secs_f64());
        }
        let mut fed = fed.expect("at least one setup");
        // The federation's footprint once ready. (Query records pile up
        // while it runs, so the peak at the end would grow with how many
        // chunks the host managed to run.)
        let rss_ready = hwm_mib("self");
        let min_supply = (self.nodes_per_site * MIN_SUPPLY_PER_250).div_ceil(250);
        let mut arr = Arrivals::new(&fed, cfg.seed ^ 0x0123, min_supply.max(K as usize));
        let epoch = Instant::now();
        let mut tr = Tracer::new(false, epoch);
        let mut violations = Vec::new();
        // The traced run measures an untraced baseline first, then turns
        // on spans, the obs recorder and the layer calls.
        let mut base: Vec<Chunk> = Vec::new();
        if cfg.trace {
            let until = Instant::now() + std::time::Duration::from_secs_f64(cfg.seconds / 2.0);
            while base.is_empty() || Instant::now() < until {
                base.push(self.chunk(&mut fed, &mut arr, None, &mut tr, &mut violations));
            }
        }
        let obs = cfg.trace.then(|| fed.enable_obs(1 << 12));
        let mut layers = if cfg.trace {
            Some(Layers::new(self.nodes_per_site as u32 * 8, None)?)
        } else {
            None
        };
        tr.set_enabled(cfg.trace);
        let cpu0 = process_cpu_ns();
        let start = Instant::now();
        let window = std::time::Duration::from_secs_f64(if cfg.trace {
            cfg.seconds / 2.0
        } else {
            cfg.seconds
        });
        let mut chunks: Vec<Chunk> = Vec::new();
        while chunks.is_empty() || start.elapsed() < window {
            chunks.push(self.chunk(
                &mut fed,
                &mut arr,
                layers.as_mut(),
                &mut tr,
                &mut violations,
            ));
        }
        let wall = start.elapsed().as_secs_f64();
        let cpu = process_cpu_ns().saturating_sub(cpu0);

        let queries: usize = chunks.iter().map(|c| c.lat_ms.len()).sum();
        out.attempted += queries as u64;
        out.failed += chunks.iter().map(|c| c.failed as u64).sum::<u64>();
        for v in violations {
            out.violate(v);
        }
        let qps = |c: &Chunk| c.completed as f64 / c.wall_s.max(1e-9);
        let s = Clock::Sim;
        let w = Clock::Wall;
        if !cfg.trace {
            out.push("setup_s", "s", w, setups);
            out.push(
                "query_p50_ms",
                "ms",
                s,
                chunks.iter().map(|c| quantile(&c.lat_ms, 0.5)).collect(),
            );
            out.push("ops_per_s", "ops/s", w, chunks.iter().map(qps).collect());
            out.push(
                "cpu_us_per_op",
                "us",
                w,
                chunks
                    .iter()
                    .map(|c| c.cpu_ns as f64 / 1e3 / c.completed.max(1) as f64)
                    .collect(),
            );
            out.push1("rss_mb", "MiB", w, rss_ready);
            return Ok(());
        }

        let snap = obs.expect("traced run records").snapshot();
        let q = queries.max(1) as f64;
        let sum = |f: fn(&NetStats) -> u64| chunks.iter().map(|c| f(&c.net)).sum::<u64>() as f64;
        let sim_s: f64 = chunks.iter().map(|c| c.sim_s).sum();
        let run_wall_ns: f64 = chunks.iter().map(|c| c.wall_s).sum::<f64>() * 1e9;
        // Reported beside the per-layer figures (from the untraced half),
        // as on the socket workloads.
        out.push(
            "query_p99_ms",
            "ms",
            s,
            base.iter().map(|c| quantile(&c.lat_ms, 0.99)).collect(),
        );
        out.push1("pastry.hops_mean", "hops", s, snap.mean_hops());
        out.push1(
            "pastry.hops_model",
            "hops",
            s,
            crate::kong_hops((self.nodes_per_site * 8) as f64),
        );
        out.push1(
            "pastry.route_msgs_per_query",
            "count",
            s,
            (snap.count("route_forward") + snap.count("route_deliver")) as f64 / q,
        );
        out.push1(
            "scribe.agg_updates_per_s",
            "1/s",
            s,
            snap.count("agg_update_recv") as f64 / sim_s.max(1e-9),
        );
        out.push1(
            "simnet.events_per_query",
            "count",
            s,
            sum(NetStats::events) / q,
        );
        out.push1(
            "simnet.wall_ns_per_event",
            "ns",
            w,
            run_wall_ns / sum(NetStats::events).max(1.0),
        );
        out.push1("simnet.msgs_per_query", "count", s, sum(NetStats::sent) / q);
        out.push1(
            "simnet.bytes_per_query",
            "bytes",
            s,
            sum(NetStats::bytes) / q,
        );
        out.push1(
            "simnet.cross_site_msgs_per_query",
            "count",
            s,
            sum(NetStats::cross_site_sent) / q,
        );
        let spans = tr.into_spans();
        let summary = trace::summarize(&spans);
        let per_call = |name: &str| {
            summary
                .get(name)
                .map_or(0.0, |l| l.total_ns as f64 / 1e3 / l.count.max(1) as f64)
        };
        out.push1("codec.encode_us", "us", w, per_call("codec.encode"));
        out.push1("codec.decode_us", "us", w, per_call("codec.decode"));
        let frame_bytes: Vec<f64> = chunks.iter().flat_map(|c| c.frame_bytes.clone()).collect();
        out.push1("codec.query_frame_bytes", "bytes", w, median(&frame_bytes));
        out.push1("query.parse_us", "us", w, per_call("query.parse"));
        out.push1("aascript.onget_us", "us", w, per_call("aascript.onget"));
        out.push1(
            "loadgen.cpu_frac",
            "ratio",
            w,
            cpu as f64 / 1e9 / wall.max(1e-9) / cfg.clients as f64,
        );
        out.push1(
            "ops_failed_frac",
            "ratio",
            w,
            chunks.iter().map(|c| c.failed).sum::<usize>() as f64 / q,
        );
        let rate = |cs: &[Chunk]| {
            cs.iter().map(|c| c.completed).sum::<usize>() as f64
                / cs.iter().map(|c| c.wall_s).sum::<f64>().max(1e-9)
        };
        out.push1(
            "trace.overhead_frac",
            "ratio",
            w,
            1.0 - rate(&chunks) / rate(&base).max(1e-9),
        );
        out.push1("trace.spans", "count", w, spans.len() as f64);
        crate::write_trace(cfg, &spans, queries as u64)?;
        Ok(())
    }
}

/// Whether `site` is one the query's FROM clause names.
fn in_from(q: &Query, site: SiteId, sites: &[String]) -> bool {
    match &q.from {
        FromClause::Sites(names) => {
            let name = &sites[site.0 as usize];
            names.iter().any(|n| n.eq_ignore_ascii_case(name))
        }
        FromClause::AllSites => true,
    }
}

/// How many members in the query's FROM sites satisfy every predicate.
fn matching(fed: &Federation, q: &Query, sites: &[String]) -> usize {
    let topo = fed.sim().topology();
    (0..topo.node_count() as u32)
        .map(NodeAddr)
        .filter(|&a| in_from(q, topo.site_of(a), sites))
        .filter(|&a| q.matches_all(|attr| fed.node(a).host.attrs.get(attr)))
        .count()
}

/// Checks one answer: `K` distinct members, each in a site the query
/// named and each satisfying every predicate on its current attributes.
fn verify(
    fed: &Federation,
    q: &Query,
    result: &[rbay_core::Candidate],
    sites: &[String],
) -> Option<String> {
    let mut addrs: Vec<u32> = result.iter().map(|c| c.addr.0).collect();
    addrs.sort_unstable();
    addrs.dedup();
    if addrs.len() != result.len() {
        return Some(format!("duplicate members in answer to `{q}`"));
    }
    for c in result {
        let node = fed.node(c.addr);
        if !q.matches_all(|a| node.host.attrs.get(a)) {
            return Some(format!("member {:?} does not match `{q}`", c.addr));
        }
        let site = fed.sim().topology().site_of(c.addr);
        if !in_from(q, site, sites) {
            return Some(format!(
                "member {:?} in {} is outside the FROM sites of `{q}`",
                c.addr, sites[site.0 as usize]
            ));
        }
    }
    None
}
