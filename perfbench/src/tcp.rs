//! The two socket workloads: `tcp-walk` and `tcp-frontdoor-rw`.
//!
//! The benchmark launches the release `rbay-node` daemons, drives them
//! over the control protocol from `nproc` closed-loop clients (one op in
//! flight per client; client 0 runs on the main thread and also takes the
//! once-a-second counter samples between its ops), and checks every
//! answer against its own ledger of posted values and observed commits.

use crate::fleet::{
    hwm_mib, proc_status, process_cpu_ns, thread_acct, to, Ctrl, Fleet, FleetSpec, ProcCounters,
    ThreadAcct,
};
use crate::layers::Layers;
use crate::report::{median, quantile, Clock, Outcome};
use crate::trace::{self, SpanId, Tracer, ROOT};
use crate::RunCfg;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rbay_bench::cluster::{proc_of, proc_sock, site_of, CtrlMsg};
use rbay_core::Candidate;
use rbay_query::{parse_query, AttrValue, Query};
use rbay_workloads::{
    password_aa_script, InstanceMix, Zipf, EC2_INSTANCE_TYPES, WORKLOAD_PASSWORD,
};
use simnet::NodeAddr;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Front-door cache capacity per gateway; the read population is several
/// times larger, so the LRU bound evicts.
const FD_CAPACITY: u32 = 64;
/// Cache entry TTL. Invalidations, not expiry, keep entries fresh.
const FD_TTL_MS: u64 = 10_000;
/// Admission bound on leader walks per gateway: above the client count,
/// so a healthy run never sheds.
const FD_MAX_PENDING: u32 = 64;
/// A read may still show a value overwritten by a write acknowledged less
/// than this long before the read was sent (the invalidation multicast is
/// in flight). Older contradictions count as stale reads.
const STALE_GRACE: Duration = Duration::from_secs(1);
/// Share of `tcp-frontdoor-rw` ops that are writes.
const WRITE_FRAC: f64 = 0.05;
/// At most one member per this many has a filtered attribute written out
/// of the queries' range at once (8 in a 1000-agent fleet), so inventory
/// never runs out.
const AGENTS_PER_OUT: u32 = 125;
/// A member written out of range stays out at least this long (longer
/// than [`STALE_GRACE`], so a cached answer that missed its invalidation
/// is caught).
const OUT_HOLD: Duration = Duration::from_secs(3);
/// Filtered attributes (`attr0`..`attr3`): every query reads one, and a
/// write purges only the cached answers that read the attribute it wrote.
const FILTERED_ATTRS: usize = 4;
/// Longest wait for a satisfied query's commits to land on the holders.
const COMMIT_WAIT: Duration = Duration::from_secs(2);
/// Closed-loop load at the end of set-up (trees and caches warm).
const WARMUP: Duration = Duration::from_secs(1);
/// Latency charged to an op that failed by timeout (it misses any limit).
const FAILED_OP_MS: f64 = 5_000.0;

/// One closed-loop TCP workload run.
pub struct TcpWorkload {
    pub frontdoor_rw: bool,
    pub agents: u32,
    pub per: u32,
    pub setup_reps: usize,
    pub base_port: u16,
    pub tick_ms: u64,
}

/// One entry of the read population.
struct ReadQuery {
    zql: String,
    parsed: Query,
    itype: &'static str,
    k: usize,
    /// Index of the filtered attribute it reads (frontdoor-rw only).
    attr: Option<usize>,
}

/// One write of the ledger for a `(member, filtered attribute)`.
#[derive(Clone, Copy)]
struct WriteRec {
    sent: Instant,
    acked: Option<Instant>,
    value: f64,
}

/// The benchmark's own record of posted values.
struct AttrLedger {
    /// `[member][attr]` → writes in send order.
    hist: Vec<[Vec<WriteRec>; FILTERED_ATTRS]>,
    /// `(member, attribute, since)` for each attribute whose latest write
    /// put it out of the queries' range, oldest first.
    out: VecDeque<(u32, usize, Instant)>,
    /// Current value of the unread `spare` attribute per member.
    spare: Vec<bool>,
}

/// State shared by the load threads.
struct Shared {
    agents: u32,
    per: u32,
    frontdoor_rw: bool,
    types: Vec<&'static str>,
    reads: Vec<ReadQuery>,
    zipf: Option<Zipf>,
    gateways: Vec<NodeAddr>,
    /// Cap on members written out of the queries' range at once.
    max_out: usize,
    /// Last `committed` count observed per member.
    seen: Vec<AtomicU32>,
    /// Satisfied answers that named each member (hits included).
    named: Vec<AtomicU32>,
    late_commits: AtomicU64,
    ledger: Mutex<AttrLedger>,
}

/// A load thread's connections and state.
struct Client {
    id: usize,
    conns: Vec<Ctrl>,
    rng: SmallRng,
    next_op: u64,
    /// The filtered attribute and members of this client's last
    /// satisfied answer (the target of its next filtered write).
    last_answer: Option<(usize, Vec<u32>)>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Read,
    Write,
}

/// What one op produced.
struct OpRec {
    end: Instant,
    kind: OpKind,
    ok: bool,
    /// Query latency (reads) or write latency (writes), ms.
    lat_ms: f64,
    /// The op's own round-trips: the query and its releases, or the
    /// write. The benchmark's `Status` checks between them and its answer
    /// verification are not part of it.
    dur_s: f64,
}

/// Everything a phase of the closed loop records.
#[derive(Default)]
struct PhaseRec {
    ops: Vec<OpRec>,
    release_ms: Vec<f64>,
    ping_ms: Vec<f64>,
    unsatisfied: u64,
    shed: u64,
    timeouts: u64,
    stale_reads: u64,
    violations: Vec<String>,
    samples: Vec<Sample>,
    /// When the phase's window closed (ops in flight then still finish).
    window_end: Option<Instant>,
    spans: Vec<trace::Span>,
    parse_us: Vec<f64>,
    key_us: Vec<f64>,
    encode_us: Vec<f64>,
    decode_us: Vec<f64>,
    frame_bytes: Vec<f64>,
    onget_us: Vec<f64>,
    append_us: Vec<f64>,
    flush_us: Vec<f64>,
}

impl PhaseRec {
    fn absorb(&mut self, o: PhaseRec) {
        self.ops.extend(o.ops);
        self.release_ms.extend(o.release_ms);
        self.ping_ms.extend(o.ping_ms);
        self.unsatisfied += o.unsatisfied;
        self.shed += o.shed;
        self.timeouts += o.timeouts;
        self.stale_reads += o.stale_reads;
        self.violations.extend(o.violations);
        self.samples.extend(o.samples);
        self.parse_us.extend(o.parse_us);
        self.key_us.extend(o.key_us);
        self.encode_us.extend(o.encode_us);
        self.decode_us.extend(o.decode_us);
        self.frame_bytes.extend(o.frame_bytes);
        self.onget_us.extend(o.onget_us);
        self.append_us.extend(o.append_us);
        self.flush_us.extend(o.flush_us);
    }
}

/// Counters of the whole fleet at one instant.
#[derive(Clone)]
struct Sample {
    at: Instant,
    procs: Vec<ProcCounters>,
    acct: Vec<ThreadAcct>,
    self_cpu_ns: u64,
}

fn us(t: (Instant, Instant)) -> f64 {
    t.1.saturating_duration_since(t.0).as_secs_f64() * 1e6
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

impl Shared {
    fn conn_of(&self, m: NodeAddr) -> usize {
        proc_of(m, self.per) as usize
    }
}

/// Reads a member's `committed` count.
fn member_committed(c: &mut Client, sh: &Shared, m: NodeAddr) -> Result<u32, String> {
    let conn = &mut c.conns[sh.conn_of(m)];
    match conn.request(&to(m, CtrlMsg::Status)) {
        Ok(CtrlMsg::StatusReply { committed, .. }) => Ok(committed),
        Ok(other) => Err(format!("status of {m:?}: {other:?}")),
        Err(e) => {
            let _ = conn.reconnect();
            Err(format!("status of {m:?}: {e}"))
        }
    }
}

/// Sends `Release` to a member.
fn release(c: &mut Client, sh: &Shared, m: NodeAddr) -> Result<(), String> {
    let conn = &mut c.conns[sh.conn_of(m)];
    match conn.request(&to(m, CtrlMsg::Release)) {
        Ok(CtrlMsg::Ok) => Ok(()),
        Ok(other) => Err(format!("release {m:?}: {other:?}")),
        Err(e) => {
            let _ = conn.reconnect();
            Err(format!("release {m:?}: {e}"))
        }
    }
}

/// Takes one fleet-wide counter sample over `conns`.
fn sample(conns: &mut [Ctrl], pids: &[u32]) -> Result<Sample, String> {
    let at = Instant::now();
    let procs = conns
        .iter_mut()
        .map(proc_status)
        .collect::<Result<Vec<_>, _>>()?;
    let acct = pids.iter().map(|&p| thread_acct(p)).collect();
    Ok(Sample {
        at,
        procs,
        acct,
        self_cpu_ns: process_cpu_ns(),
    })
}

/// Checks a read's answer: `k` distinct members, each satisfying every
/// predicate under the ledger. Returns the failure, if any, and whether
/// it was a stale read.
fn verify_read(
    sh: &Shared,
    q: &ReadQuery,
    results: &[Candidate],
    sent: Instant,
    recvd: Instant,
) -> Option<(String, bool)> {
    let mut addrs: Vec<u32> = results.iter().map(|c| c.addr.0).collect();
    addrs.sort_unstable();
    addrs.dedup();
    if addrs.len() != results.len() {
        return Some((format!("duplicate members in answer to `{}`", q.zql), false));
    }
    for c in results {
        let m = c.addr.0;
        if m >= sh.agents {
            return Some((
                format!("unknown member {m} in answer to `{}`", q.zql),
                false,
            ));
        }
        if sh.types[m as usize] != q.itype {
            return Some((
                format!(
                    "member {m} ({}) does not match `{}`",
                    sh.types[m as usize], q.zql
                ),
                false,
            ));
        }
        let itype = AttrValue::str(sh.types[m as usize]);
        let Some(j) = q.attr else { continue };
        let ledger = sh
            .ledger
            .lock()
            .expect("ledger lock poisoned by a panicking client");
        let hist = &ledger.hist[m as usize][j];
        let cutoff = sent.checked_sub(STALE_GRACE).unwrap_or(sent);
        // The value settled before the grace window, plus every value that
        // may have been current while the read was served.
        let settled = hist
            .iter()
            .filter(|w| w.acked.is_some_and(|a| a <= cutoff))
            .max_by_key(|w| w.acked)
            .map_or(0.0, |w| w.value);
        let recent = hist
            .iter()
            .filter(|w| w.sent < recvd && w.acked.is_none_or(|a| a > cutoff))
            .map(|w| w.value);
        let attr = format!("attr{j}");
        let ok = std::iter::once(settled).chain(recent).any(|v| {
            let val = AttrValue::Num(v);
            q.parsed.matches_all(|a| match a {
                "instance" => Some(&itype),
                a if a == attr => Some(&val),
                _ => None,
            })
        });
        if !ok {
            return Some((
                format!(
                    "stale read: member {m} has {attr} = {settled} (acknowledged over {} ms \
                     before the read) but was returned for `{}`",
                    STALE_GRACE.as_millis(),
                    q.zql
                ),
                true,
            ));
        }
    }
    None
}

/// A timed `Release` of one of an op's members; its round-trip is added
/// to `op_s`, failed or not.
#[allow(clippy::too_many_arguments)]
fn op_release(
    c: &mut Client,
    sh: &Shared,
    m: NodeAddr,
    rec: &mut PhaseRec,
    tr: &mut Tracer,
    op: u64,
    parent: SpanId,
    op_s: &mut f64,
) -> Result<(), String> {
    let t0 = Instant::now();
    let r = release(c, sh, m);
    let t1 = Instant::now();
    *op_s += t1.duration_since(t0).as_secs_f64();
    tr.record("ctrl.release", op, parent, t0, t1);
    r?;
    rec.release_ms
        .push(t1.duration_since(t0).as_secs_f64() * 1e3);
    Ok(())
}

/// Commit accounting after a read returned `results`. In `tcp-walk` the
/// client holds its commits exclusively, so it waits for each to land,
/// then releases it. Through the front door a hit returns members that an
/// earlier walk committed, so a member is released only when its counter
/// advanced past what the ledger has seen; whoever advances the ledger
/// releases. The releases' round-trips are added to `op_s`; the `Status`
/// checks are the benchmark's bookkeeping and are not.
#[allow(clippy::too_many_arguments)]
fn settle_commits(
    c: &mut Client,
    sh: &Shared,
    results: &[Candidate],
    satisfied: bool,
    rec: &mut PhaseRec,
    tr: &mut Tracer,
    op: u64,
    parent: SpanId,
    op_s: &mut f64,
) -> Result<(), String> {
    // Only a satisfied walk commits; the engine itself releases the
    // members of a partial answer, and a second release could clear a
    // reservation another query has taken since.
    if !satisfied {
        return Ok(());
    }
    for cand in results {
        let m = cand.addr;
        sh.named[m.0 as usize].fetch_add(1, Ordering::SeqCst);
        let seen = &sh.seen[m.0 as usize];
        if sh.frontdoor_rw {
            let observed = member_committed(c, sh, m)?;
            let mut cur = seen.load(Ordering::SeqCst);
            let mut owner = false;
            while observed > cur {
                match seen.compare_exchange(cur, observed, Ordering::SeqCst, Ordering::SeqCst) {
                    Ok(_) => {
                        owner = true;
                        break;
                    }
                    Err(now) => cur = now,
                }
            }
            if owner {
                op_release(c, sh, m, rec, tr, op, parent, op_s)?;
            }
            continue;
        }
        let before = seen.load(Ordering::SeqCst);
        let deadline = Instant::now() + COMMIT_WAIT;
        let landed = loop {
            let observed = member_committed(c, sh, m)?;
            if observed > before {
                seen.store(observed, Ordering::SeqCst);
                break true;
            }
            if Instant::now() >= deadline {
                break false;
            }
            std::thread::sleep(Duration::from_micros(200));
        };
        if !landed {
            rec.violations.push(format!(
                "commit on member {} not visible {} ms after QueryDone",
                m.0,
                COMMIT_WAIT.as_millis()
            ));
        }
        op_release(c, sh, m, rec, tr, op, parent, op_s)?;
    }
    Ok(())
}

/// One read: issue the query, check the answer, settle its commits.
fn read_op(
    c: &mut Client,
    sh: &Shared,
    rec: &mut PhaseRec,
    tr: &mut Tracer,
    layers: Option<&mut Layers>,
    op: u64,
    root: SpanId,
) -> bool {
    let (qi, querier) = if let Some(z) = &sh.zipf {
        let g = sh.gateways[c.rng.gen_range(0..sh.gateways.len())];
        (z.sample(&mut c.rng), g)
    } else {
        let qi = c.rng.gen_range(0..sh.reads.len());
        (qi, NodeAddr(c.rng.gen_range(0..sh.agents)))
    };
    let q = &sh.reads[qi];
    let d = sh.conn_of(querier);
    let msg = to(
        querier,
        CtrlMsg::IssueQuery {
            zql: q.zql.clone(),
            password: Some(WORKLOAD_PASSWORD.into()),
        },
    );
    let sent = Instant::now();
    let span = tr.begin("ctrl.query", op, root);
    let reply = c.conns[d].request(&msg);
    tr.end(span);
    let recvd = Instant::now();
    let lat_ms = recvd.duration_since(sent).as_secs_f64() * 1e3;
    let mut op_s = lat_ms / 1e3;
    let mut ok = true;
    match reply {
        Ok(CtrlMsg::QueryDone {
            satisfied,
            results,
            unknown_sites,
        }) => {
            if !satisfied || results.len() != q.k || !unknown_sites.is_empty() {
                eprintln!(
                    "perfbench: unsatisfied after {lat_ms:.1} ms with {} of {} result(s): `{}` from {querier:?}",
                    results.len(),
                    q.k,
                    q.zql
                );
                rec.unsatisfied += 1;
                ok = false;
            }
            if let Some((why, stale)) = verify_read(sh, q, &results, sent, recvd) {
                rec.violations.push(why);
                rec.stale_reads += u64::from(stale);
                ok = false;
            }
            if let (true, Some(j)) = (ok, q.attr) {
                c.last_answer = Some((j, results.iter().map(|r| r.addr.0).collect()));
            }
            if let Err(e) = settle_commits(c, sh, &results, satisfied, rec, tr, op, root, &mut op_s)
            {
                rec.timeouts += 1;
                rec.violations.push(e);
                ok = false;
            }
            if let Some(l) = layers {
                layer_calls(l, q, querier, &results, rec, tr, op, root);
            }
        }
        Ok(CtrlMsg::QueryShed { .. }) => {
            rec.shed += 1;
            ok = false;
        }
        Ok(other) => {
            rec.violations
                .push(format!("unexpected answer to a query: {other:?}"));
            ok = false;
        }
        Err(_) => {
            rec.timeouts += 1;
            let _ = c.conns[d].reconnect();
            ok = false;
        }
    }
    rec.ops.push(OpRec {
        end: Instant::now(),
        kind: OpKind::Read,
        ok,
        lat_ms: if ok { lat_ms } else { lat_ms.max(FAILED_OP_MS) },
        dur_s: op_s,
    });
    ok
}

/// The traced run's in-process layer calls on this op's inputs.
#[allow(clippy::too_many_arguments)]
fn layer_calls(
    l: &mut Layers,
    q: &ReadQuery,
    querier: NodeAddr,
    results: &[Candidate],
    rec: &mut PhaseRec,
    tr: &mut Tracer,
    op: u64,
    root: SpanId,
) {
    let (parsed, t) = l.parse(&q.zql);
    tr.record("query.parse", op, root, t.0, t.1);
    rec.parse_us.push(us(t));
    if q.attr.is_some() {
        let t = l.key(&parsed);
        tr.record("frontdoor.key", op, root, t.0, t.1);
        rec.key_us.push(us(t));
    }
    let (bytes, enc, dec) = l.codec(&parsed, querier, results);
    tr.record("codec.encode", op, root, enc.0, enc.1);
    tr.record("codec.decode", op, root, dec.0, dec.1);
    rec.frame_bytes.push(bytes as f64);
    rec.encode_us.push(us(enc));
    rec.decode_us.push(us(dec));
    let t = l.onget(querier);
    tr.record("aascript.onget", op, root, t.0, t.1);
    rec.onget_us.push(us(t));
}

/// One write: post a value from a two-value set to a random member.
fn write_op(
    c: &mut Client,
    sh: &Shared,
    rec: &mut PhaseRec,
    tr: &mut Tracer,
    layers: Option<&mut Layers>,
    op: u64,
    root: SpanId,
) -> bool {
    let filtered = c.rng.gen_bool(0.5);
    let (m, attr, value, slot) = {
        let mut ledger = sh
            .ledger
            .lock()
            .expect("ledger lock poisoned by a panicking client");
        if filtered {
            // Knock a member of this client's last answer out of its
            // query's range: the gateway caches that answer, so the write
            // must invalidate it. With `max_out` members out, bring the
            // longest-out one back instead.
            let last_value = |l: &AttrLedger, m: u32, j: usize| {
                l.hist[m as usize][j].last().map_or(0.0, |w| w.value)
            };
            let target = c.last_answer.as_ref().and_then(|(j, members)| {
                members
                    .choose(&mut c.rng)
                    .map(|&m| (m, *j))
                    .filter(|&(m, j)| last_value(&ledger, m, j) >= 0.0)
            });
            let oldest_due = ledger
                .out
                .front()
                .is_some_and(|o| o.2.elapsed() >= OUT_HOLD);
            let (m, j, value) = match target {
                Some((m, j)) if ledger.out.len() < sh.max_out => {
                    ledger.out.push_back((m, j, Instant::now()));
                    (m, j, -1.0)
                }
                _ if oldest_due => {
                    let (m, j, _) = ledger.out.pop_front().expect("checked non-empty");
                    (m, j, 0.0)
                }
                // Nothing to change: re-post the value a member already
                // holds (still an invalidation and a WAL dedup skip).
                _ => loop {
                    let m = c.rng.gen_range(0..sh.agents);
                    let j = c.rng.gen_range(0..FILTERED_ATTRS);
                    if last_value(&ledger, m, j) >= 0.0 {
                        break (m, j, 0.0);
                    }
                },
            };
            ledger.hist[m as usize][j].push(WriteRec {
                sent: Instant::now(),
                acked: None,
                value,
            });
            let slot = ledger.hist[m as usize][j].len() - 1;
            (
                m,
                format!("attr{j}"),
                AttrValue::Num(value),
                Some((j, slot)),
            )
        } else {
            let m = c.rng.gen_range(0..sh.agents);
            let v = !ledger.spare[m as usize];
            ledger.spare[m as usize] = v;
            (
                m,
                "spare".to_owned(),
                AttrValue::Num(f64::from(u8::from(v))),
                None,
            )
        }
    };
    let member = NodeAddr(m);
    let d = sh.conn_of(member);
    let sent = Instant::now();
    let span = tr.begin("ctrl.post", op, root);
    let reply = c.conns[d].request(&to(
        member,
        CtrlMsg::Post {
            attr: attr.clone(),
            value: value.clone(),
        },
    ));
    tr.end(span);
    let lat_ms = ms_since(sent);
    let ok = match reply {
        Ok(CtrlMsg::Ok) => {
            if let Some((j, slot)) = slot {
                let mut ledger = sh
                    .ledger
                    .lock()
                    .expect("ledger lock poisoned by a panicking client");
                ledger.hist[m as usize][j][slot].acked = Some(Instant::now());
            }
            true
        }
        Ok(other) => {
            rec.violations
                .push(format!("unexpected answer to a post: {other:?}"));
            false
        }
        Err(_) => {
            rec.timeouts += 1;
            let _ = c.conns[d].reconnect();
            false
        }
    };
    if let Some(l) = layers {
        if let Some((app, fl)) = l.store_write(&attr, &value) {
            tr.record("store.append", op, root, app.0, app.1);
            tr.record("store.flush", op, root, fl.0, fl.1);
            rec.append_us.push(us(app));
            rec.flush_us.push(us(fl));
        }
    }
    rec.ops.push(OpRec {
        end: Instant::now(),
        kind: OpKind::Write,
        ok,
        lat_ms: if ok { lat_ms } else { lat_ms.max(FAILED_OP_MS) },
        dur_s: lat_ms / 1e3,
    });
    ok
}

/// A ctrl `Status` round-trip to an idle member between ops: how quickly
/// the member's `Pack` loop answers while the fleet is under load.
fn ping(c: &mut Client, sh: &Shared, rec: &mut PhaseRec, tr: &mut Tracer, op: u64, root: SpanId) {
    let m = NodeAddr(c.rng.gen_range(0..sh.agents));
    let t0 = Instant::now();
    if member_committed(c, sh, m).is_ok() {
        tr.record("ctrl.ping", op, root, t0, Instant::now());
        rec.ping_ms.push(ms_since(t0));
    }
}

/// Runs the closed loop on one client until `end`. Client 0 takes a
/// counter sample each time a sampling mark passes.
#[allow(clippy::too_many_arguments)]
fn client_loop(
    c: &mut Client,
    sh: &Shared,
    pids: &[u32],
    end: Instant,
    marks: &[Instant],
    traced: bool,
    epoch: Instant,
    store_dir: Option<std::path::PathBuf>,
) -> PhaseRec {
    let mut rec = PhaseRec::default();
    let mut tr = Tracer::new(traced, epoch);
    let mut layers = if traced {
        Some(Layers::new(sh.agents, store_dir).expect("layer fixtures build"))
    } else {
        None
    };
    let mut next_mark = 0;
    while Instant::now() < end {
        let op = (c.id as u64) << 40 | c.next_op;
        c.next_op += 1;
        let root = tr.begin("op", op, ROOT);
        let write = sh.frontdoor_rw && c.rng.gen_bool(WRITE_FRAC);
        if write {
            write_op(c, sh, &mut rec, &mut tr, layers.as_mut(), op, root);
        } else {
            read_op(c, sh, &mut rec, &mut tr, layers.as_mut(), op, root);
        }
        tr.end(root);
        if traced {
            ping(c, sh, &mut rec, &mut tr, op, root);
        }
        if c.id == 0 && next_mark < marks.len() && Instant::now() >= marks[next_mark] {
            while next_mark < marks.len() && Instant::now() >= marks[next_mark] {
                next_mark += 1;
            }
            let span = tr.begin("sample.status", op, ROOT);
            match sample(&mut c.conns, pids) {
                Ok(s) => rec.samples.push(s),
                Err(e) => rec.violations.push(format!("counter sample: {e}")),
            }
            tr.end(span);
        }
    }
    rec.spans = tr.into_spans();
    rec
}

/// Runs every client for `dur` (client 0 on this thread) and merges
/// their records; samples are taken at the window edges and once a
/// second in between.
fn run_phase(
    clients: &mut [Client],
    sh: &Shared,
    pids: &[u32],
    dur: Duration,
    traced: bool,
    epoch: Instant,
    store_root: &std::path::Path,
) -> Result<PhaseRec, String> {
    let start_sample = sample(&mut clients[0].conns, pids)?;
    let start = Instant::now();
    let end = start + dur;
    let marks: Vec<Instant> = (1..dur.as_secs())
        .map(|s| start + Duration::from_secs(s))
        .collect();
    let (first, rest) = clients.split_first_mut().expect("at least one client");
    let mut merged = PhaseRec::default();
    let mut spans = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = rest
            .iter_mut()
            .map(|c| {
                let marks = &marks;
                let dir = store_root.join(format!("store-{}", c.id));
                s.spawn(move || client_loop(c, sh, pids, end, marks, traced, epoch, Some(dir)))
            })
            .collect();
        let mut r0 = client_loop(
            first,
            sh,
            pids,
            end,
            &marks,
            traced,
            epoch,
            Some(store_root.join("store-0")),
        );
        spans.push(std::mem::take(&mut r0.spans));
        merged.absorb(r0);
        for h in handles {
            let mut r = h.join().expect("load thread panicked");
            spans.push(std::mem::take(&mut r.spans));
            merged.absorb(r);
        }
    });
    let mut samples = vec![start_sample];
    samples.append(&mut merged.samples);
    samples.push(sample(&mut clients[0].conns, pids)?);
    merged.samples = samples;
    merged.window_end = Some(end);
    merged.spans = trace::merge(spans);
    Ok(merged)
}

/// End-to-end values of one slice of a fleet's window (between two
/// consecutive counter samples, about a second).
///
/// `ops_per_s` is the closed loop's goodput: clients × successful ops ÷
/// the time all ops of the slice took, failed ones included (Little's
/// law over each op's own round-trips, see [`OpRec::dur_s`]). A failed
/// query that held its client for seconds thus lowers its slice's rate;
/// the median over the slices keeps a rare stall from deciding the run,
/// while failures common enough to reach half the slices move it. Failed
/// reads also stay in the latency sample at [`FAILED_OP_MS`].
struct SliceValues {
    p50: f64,
    p99: f64,
    ops_per_s: f64,
    cpu_us_per_op: f64,
}

fn slice_values(rec: &PhaseRec, clients: usize) -> Vec<SliceValues> {
    let mut out = Vec::new();
    for w in rec.samples.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        if b.at.duration_since(a.at) < Duration::from_millis(500) {
            continue; // a sliver after the last mark
        }
        let in_slice = || rec.ops.iter().filter(|o| o.end >= a.at && o.end < b.at);
        let lats: Vec<f64> = in_slice()
            .filter(|o| o.kind == OpKind::Read)
            .map(|o| o.lat_ms)
            .collect();
        let ok = in_slice().filter(|o| o.ok).count() as f64;
        let busy_s: f64 = in_slice().map(|o| o.dur_s).sum();
        let cpu: u64 = b
            .acct
            .iter()
            .zip(&a.acct)
            .map(|(y, x)| y.total_cpu_ns.saturating_sub(x.total_cpu_ns))
            .sum();
        out.push(SliceValues {
            p50: quantile(&lats, 0.50),
            p99: quantile(&lats, 0.99),
            ops_per_s: clients as f64 * ok / busy_s.max(1e-9),
            cpu_us_per_op: cpu as f64 / 1e3 / ok.max(1.0),
        });
    }
    out
}

/// The result of one fleet set-up.
struct Ready {
    fleet: Fleet,
    admin: Vec<Ctrl>,
    clients: Vec<Client>,
    setup_s: f64,
    converge_s: f64,
    attach_s: f64,
}

/// Sends `msgs` down one connection in batches and checks every reply
/// with `check`.
fn pipeline(
    ctrl: &mut Ctrl,
    msgs: &[CtrlMsg],
    mut check: impl FnMut(usize, CtrlMsg) -> Result<(), String>,
) -> Result<(), String> {
    for (b, chunk) in msgs.chunks(64).enumerate() {
        for m in chunk {
            ctrl.send(m).map_err(|e| format!("ctrl send: {e}"))?;
        }
        for i in 0..chunk.len() {
            let reply = ctrl.recv().map_err(|e| format!("ctrl reply: {e}"))?;
            check(b * 64 + i, reply)?;
        }
    }
    Ok(())
}

/// Polls `check` every 20 ms until it holds or `budget` passes.
fn wait_for(
    budget: Duration,
    what: &str,
    fleet: &mut Fleet,
    mut check: impl FnMut() -> Result<bool, String>,
) -> Result<(), String> {
    let deadline = Instant::now() + budget;
    loop {
        if check()? {
            return Ok(());
        }
        fleet.check_alive()?;
        if Instant::now() >= deadline {
            return Err(format!("timed out waiting for {what}"));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

impl TcpWorkload {
    fn fleet_spec(&self, cfg: &RunCfg, rep: usize) -> FleetSpec {
        FleetSpec {
            agents: self.agents,
            per: self.per,
            base_port: self.base_port,
            tick_ms: self.tick_ms,
            frontdoor: self.frontdoor_rw,
            data_dir: self.frontdoor_rw.then(|| {
                cfg.out_dir
                    .join(format!("data-{}-{rep}", std::process::id()))
            }),
        }
    }

    /// The three gateways of the single site (its lowest addresses).
    fn gateways(&self) -> Vec<NodeAddr> {
        (0..self.agents)
            .filter(|&i| site_of(i, self.agents, 1).0 == 0)
            .take(3)
            .map(NodeAddr)
            .collect()
    }

    /// Launch → converged → inventory posted and attached → gateways
    /// enabled → warm-up done.
    fn setup(&self, cfg: &RunCfg, sh: &Shared, rep: usize) -> Result<Ready, String> {
        let spec = self.fleet_spec(cfg, rep);
        let procs = spec.procs();
        let t_launch = Instant::now();
        let mut fleet = Fleet::spawn(&cfg.node_bin, &spec, &cfg.out_dir, cfg.sut_cpus.as_deref())?;
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut admin: Vec<Ctrl> = (0..procs)
            .map(|p| Ctrl::connect(proc_sock(spec.base_port, p), deadline))
            .collect::<Result<_, _>>()?;

        // Overlay convergence: every member joined.
        wait_for(
            Duration::from_secs(120),
            "overlay convergence",
            &mut fleet,
            || {
                let mut joined = 0;
                for a in admin.iter_mut() {
                    joined += proc_status(a)?.joined;
                }
                Ok(joined == self.agents)
            },
        )?;
        let converge_s = t_launch.elapsed().as_secs_f64();

        // Inventory: the password AA and the instance type on every
        // member (plus the filtered attributes for the front-door mix).
        let src = password_aa_script();
        for (p, a) in admin.iter_mut().enumerate() {
            let mut msgs = Vec::new();
            for m in (0..self.agents).filter(|&m| proc_of(NodeAddr(m), self.per) == p as u32) {
                let member = NodeAddr(m);
                msgs.push(to(member, CtrlMsg::InstallNodeAa { src: src.clone() }));
                msgs.push(to(
                    member,
                    CtrlMsg::Post {
                        attr: "instance".into(),
                        value: AttrValue::str(sh.types[m as usize]),
                    },
                ));
                if self.frontdoor_rw {
                    for j in 0..FILTERED_ATTRS {
                        msgs.push(to(
                            member,
                            CtrlMsg::Post {
                                attr: format!("attr{j}"),
                                value: AttrValue::Num(0.0),
                            },
                        ));
                    }
                }
            }
            pipeline(a, &msgs, |i, r| match r {
                CtrlMsg::Ok => Ok(()),
                other => Err(format!("inventory request {i} on daemon {p}: {other:?}")),
            })?;
        }
        let t_posted = Instant::now();

        // Every member attached to every tree it holds state for.
        let trees = 1 + if self.frontdoor_rw { FILTERED_ATTRS } else { 0 };
        wait_for(
            Duration::from_secs(60),
            "tree attachment",
            &mut fleet,
            || all_attached(&mut admin, self.agents, self.per, trees as u32),
        )?;
        let attach_s = t_posted.elapsed().as_secs_f64();

        if self.frontdoor_rw {
            for &g in &sh.gateways {
                let reply = admin[proc_of(g, self.per) as usize]
                    .request(&to(
                        g,
                        CtrlMsg::EnableFrontdoor {
                            ttl_ms: FD_TTL_MS,
                            capacity: FD_CAPACITY,
                            max_pending: FD_MAX_PENDING,
                        },
                    ))
                    .map_err(|e| format!("enable front door on {g:?}: {e}"))?;
                if reply != CtrlMsg::Ok {
                    return Err(format!("enable front door on {g:?}: {reply:?}"));
                }
            }
            // The invalidation tree must reach every gateway before writes.
            wait_for(
                Duration::from_secs(60),
                "front-door tree",
                &mut fleet,
                || {
                    for &g in &sh.gateways {
                        match admin[proc_of(g, self.per) as usize].request(&to(g, CtrlMsg::Status))
                        {
                            Ok(CtrlMsg::StatusReply {
                                topics, attached, ..
                            }) if attached == topics && topics > trees as u32 => {}
                            Ok(CtrlMsg::StatusReply { .. }) => return Ok(false),
                            other => return Err(format!("status of gateway {g:?}: {other:?}")),
                        }
                    }
                    Ok(true)
                },
            )?;
        }

        // Load connections, then a fixed warm-up of closed-loop ops (its
        // failures are not counted; the measured window counts its own).
        let mut clients: Vec<Client> = (0..cfg.clients)
            .map(|id| {
                let conns = (0..procs)
                    .map(|p| Ctrl::connect(proc_sock(spec.base_port, p), deadline))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Client {
                    id,
                    conns,
                    rng: SmallRng::seed_from_u64(cfg.seed ^ (0x5eed_0000 + (rep * 64 + id) as u64)),
                    next_op: 0,
                    last_answer: None,
                })
            })
            .collect::<Result<_, String>>()?;
        let warm = run_phase(
            &mut clients,
            sh,
            &fleet.pids(),
            WARMUP,
            false,
            t_launch,
            &cfg.out_dir,
        )?;
        if let Some(v) = warm.violations.first() {
            return Err(format!("warm-up: {v}"));
        }
        // Ready when the warm-up window closes; an op still in flight
        // then (a failing query can hold its client for seconds) belongs
        // to the load, not to set-up.
        let setup_s = warm
            .window_end
            .expect("run_phase sets the window end")
            .duration_since(t_launch)
            .as_secs_f64();
        Ok(Ready {
            fleet,
            admin,
            clients,
            setup_s,
            converge_s,
            attach_s,
        })
    }

    pub fn run(&self, cfg: &RunCfg, out: &mut Outcome) -> Result<(), String> {
        let sh = self.shared(cfg)?;
        // Set up several times and measure an equal share of the window on
        // each fleet: every fleet's overlay (and so every tree's shape and
        // how many of a walk's hops cross daemons) depends on join timing,
        // so one fleet's latency differs from the next by a third. Each
        // end-to-end value is the median over the one-second slices of all
        // fleets, which also rides out the host's bursts of slowness.
        let mut setups = Vec::new();
        let mut converge = Vec::new();
        let mut attach = Vec::new();
        let mut rss = Vec::new();
        let (mut p50, mut ops_per_s, mut cpu_per_op) = (Vec::new(), Vec::new(), Vec::new());
        let mut last = None;
        let share = Duration::from_secs_f64(cfg.seconds / self.setup_reps as f64);
        for rep in 0..self.setup_reps {
            reset_ledgers(&sh);
            let mut ready = self.setup(cfg, &sh, rep)?;
            eprintln!(
                "perfbench: setup {rep}: {:.2} s (converged {:.2} s, attached {:.2} s)",
                ready.setup_s, ready.converge_s, ready.attach_s
            );
            setups.push(ready.setup_s);
            converge.push(ready.converge_s);
            attach.push(ready.attach_s);
            let pids = ready.fleet.pids();
            let epoch = Instant::now();
            let (base, rec) = if cfg.trace {
                // Untraced baseline and traced half on the same fleet.
                let half = share / 2;
                let base = run_phase(
                    &mut ready.clients,
                    &sh,
                    &pids,
                    half,
                    false,
                    epoch,
                    &cfg.out_dir,
                )?;
                let rec = run_phase(
                    &mut ready.clients,
                    &sh,
                    &pids,
                    half,
                    true,
                    epoch,
                    &cfg.out_dir,
                )?;
                (Some(base), rec)
            } else {
                let rec = run_phase(
                    &mut ready.clients,
                    &sh,
                    &pids,
                    share,
                    false,
                    epoch,
                    &cfg.out_dir,
                )?;
                (None, rec)
            };
            let ledger_violations = self.check_ledger(&mut ready, &sh)?;
            ready.fleet.check_alive()?;
            rss.push(pids.iter().map(|p| hwm_mib(&p.to_string())).sum::<f64>());
            eprintln!(
                "perfbench: {} ops, {} failed ({} unsatisfied, {} shed, {} timed out, {} stale reads), \
                 {} late commits",
                rec.ops.len(),
                rec.ops.iter().filter(|o| !o.ok).count(),
                rec.unsatisfied,
                rec.shed,
                rec.timeouts,
                rec.stale_reads,
                sh.late_commits.load(Ordering::SeqCst)
            );
            out.attempted += rec.ops.len() as u64;
            out.failed += rec.ops.iter().filter(|o| !o.ok).count() as u64;
            for v in rec.violations.iter().chain(&ledger_violations) {
                out.violate(v.clone());
            }
            let slices = slice_values(&rec, cfg.clients);
            eprintln!(
                "perfbench: fleet {rep}: {} slices, p50 {:.3} ms, p99 {:.3} ms (medians)",
                slices.len(),
                median(&slices.iter().map(|v| v.p50).collect::<Vec<_>>()),
                median(&slices.iter().map(|v| v.p99).collect::<Vec<_>>()),
            );
            for v in slices {
                p50.push(v.p50);
                ops_per_s.push(v.ops_per_s);
                cpu_per_op.push(v.cpu_us_per_op);
            }
            last = Some((base, rec));
            // `ready` drops here: the fleet is killed and reaped before
            // the next one is launched.
        }
        if !cfg.trace {
            out.push("setup_s", "s", Clock::Wall, setups);
            out.push("query_p50_ms", "ms", Clock::Wall, p50);
            out.push("ops_per_s", "ops/s", Clock::Wall, ops_per_s);
            out.push("cpu_us_per_op", "us", Clock::Wall, cpu_per_op);
            out.push("rss_mb", "MiB", Clock::Wall, rss);
            return Ok(());
        }
        let (base, rec) = last.expect("at least one setup");
        let reads = rec.ops.iter().filter(|o| o.kind == OpKind::Read).count() as f64;
        let writes = rec.ops.iter().filter(|o| o.kind == OpKind::Write).count() as f64;
        let ok_ops = rec.ops.iter().filter(|o| o.ok).count() as f64;

        // Per-layer metrics from the traced half.
        let first = rec.samples.first().expect("start sample");
        let last = rec.samples.last().expect("end sample");
        let dt = last.at.duration_since(first.at).as_secs_f64();
        let ops = ok_ops.max(1.0);
        let d = |f: fn(&ThreadAcct) -> u64| -> Vec<u64> {
            last.acct
                .iter()
                .zip(&first.acct)
                .map(|(b, a)| f(b).saturating_sub(f(a)))
                .collect()
        };
        let bus_cpu: u64 = d(|a| a.bus_cpu_ns).iter().sum();
        let bus_wake: u64 = d(|a| a.bus_wakeups).iter().sum();
        let main_cpu = d(|a| a.main_cpu_ns);
        let main_wake: u64 = d(|a| a.main_wakeups).iter().sum();
        let sum_p = |f: fn(&ProcCounters) -> u64| -> f64 {
            let b: u64 = last.procs.iter().map(f).sum();
            let a: u64 = first.procs.iter().map(f).sum();
            b.saturating_sub(a) as f64
        };
        let fd_hits = sum_p(|p| p.frontdoor.hits);
        let fd_lookups = fd_hits
            + sum_p(|p| p.frontdoor.misses)
            + sum_p(|p| p.frontdoor.coalesced)
            + sum_p(|p| p.frontdoor.shed);
        let per_read = |x: f64| {
            if self.frontdoor_rw {
                x / reads.max(1.0)
            } else {
                0.0
            }
        };
        let per_write = |x: f64| if writes > 0.0 { x / writes } else { 0.0 };
        let traced_ops_s = ok_ops / dt.max(1e-9);
        let base_ops_s = base.as_ref().map_or(traced_ops_s, |b| {
            let s = (&b.samples[0], b.samples.last().expect("end sample"));
            b.ops.iter().filter(|o| o.ok).count() as f64
                / s.1.at.duration_since(s.0.at).as_secs_f64().max(1e-9)
        });
        let w = Clock::Wall;
        out.push("pastry.converge_s", "s", w, converge);
        out.push("scribe.attach_s", "s", w, attach);
        out.push1("bus.cpu_us_per_op", "us", w, bus_cpu as f64 / 1e3 / ops);
        out.push1("bus.wakeups_per_op", "count", w, bus_wake as f64 / ops);
        out.push1("bus.drops", "count", w, sum_p(|p| p.drops.total()));
        out.push1(
            "bus.drops_unresolvable",
            "count",
            w,
            sum_p(|p| p.drops.unresolvable),
        );
        out.push1(
            "bus.drops_outbound_full",
            "count",
            w,
            sum_p(|p| p.drops.outbound_full),
        );
        out.push1(
            "bus.drops_write_cap",
            "count",
            w,
            sum_p(|p| p.drops.write_cap),
        );
        out.push1(
            "bus.drops_connect_exhausted",
            "count",
            w,
            sum_p(|p| p.drops.connect_exhausted),
        );
        out.push1(
            "bus.drops_conn_closed",
            "count",
            w,
            sum_p(|p| p.drops.conn_closed),
        );
        out.push1(
            "codec.query_frame_bytes",
            "bytes",
            w,
            median(&rec.frame_bytes),
        );
        out.push1("codec.encode_us", "us", w, median(&rec.encode_us));
        out.push1("codec.decode_us", "us", w, median(&rec.decode_us));
        out.push1(
            "pack.cpu_us_per_op",
            "us",
            w,
            main_cpu.iter().sum::<u64>() as f64 / 1e3 / ops,
        );
        out.push1("pack.wakeups_per_op", "count", w, main_wake as f64 / ops);
        out.push1(
            "pack.busy_frac_max",
            "ratio",
            w,
            main_cpu.iter().copied().max().unwrap_or(0) as f64 / 1e9 / dt.max(1e-9),
        );
        out.push1("pack.ping_p50_ms", "ms", w, quantile(&rec.ping_ms, 0.5));
        out.push1("pack.ping_p99_ms", "ms", w, quantile(&rec.ping_ms, 0.99));
        out.push1(
            "ctrl.release_p50_ms",
            "ms",
            w,
            quantile(&rec.release_ms, 0.5),
        );
        out.push1(
            "ctrl.release_p99_ms",
            "ms",
            w,
            quantile(&rec.release_ms, 0.99),
        );
        out.push1(
            "frontdoor.hit_ratio",
            "ratio",
            w,
            if fd_lookups > 0.0 {
                fd_hits / fd_lookups
            } else {
                0.0
            },
        );
        out.push1(
            "frontdoor.coalesced_per_read",
            "ratio",
            w,
            per_read(sum_p(|p| p.frontdoor.coalesced)),
        );
        out.push1(
            "frontdoor.shed_per_read",
            "ratio",
            w,
            per_read(sum_p(|p| p.frontdoor.shed)),
        );
        out.push1(
            "frontdoor.evictions_per_read",
            "ratio",
            w,
            per_read(sum_p(|p| p.frontdoor.evictions)),
        );
        out.push1(
            "frontdoor.invalidations_per_write",
            "ratio",
            w,
            per_write(sum_p(|p| p.frontdoor.invalidations)),
        );
        out.push1("frontdoor.key_us", "us", w, median(&rec.key_us));
        out.push1(
            "frontdoor.late_commits",
            "count",
            w,
            sh.late_commits.load(Ordering::SeqCst) as f64,
        );
        out.push1("query.parse_us", "us", w, median(&rec.parse_us));
        out.push1("aascript.onget_us", "us", w, median(&rec.onget_us));
        out.push1(
            "store.appends_per_op",
            "ratio",
            w,
            sum_p(|p| p.store.appends) / ops,
        );
        out.push1(
            "store.wal_bytes_per_write",
            "bytes",
            w,
            per_write(sum_p(|p| p.store.wal_bytes)),
        );
        out.push1(
            "store.dedup_skips_per_write",
            "ratio",
            w,
            per_write(sum_p(|p| p.store.dedup_skips)),
        );
        out.push1("store.snapshots", "count", w, sum_p(|p| p.store.snapshots));
        out.push1("store.append_us", "us", w, median(&rec.append_us));
        out.push1("store.flush_us", "us", w, median(&rec.flush_us));
        let cores = cfg.clients as f64;
        out.push1(
            "loadgen.cpu_frac",
            "ratio",
            w,
            last.self_cpu_ns.saturating_sub(first.self_cpu_ns) as f64 / 1e9 / dt.max(1e-9) / cores,
        );
        let write_lats: Vec<f64> = rec
            .ops
            .iter()
            .filter(|o| o.kind == OpKind::Write)
            .map(|o| o.lat_ms)
            .collect();
        // The tail is not gated (it moved by a third between two sets of
        // runs of the same code on a shared host); it is reported from the
        // untraced half, as the median over its one-second slices.
        let base_p99: Vec<f64> = base
            .as_ref()
            .map(|b| slice_values(b, cfg.clients).iter().map(|v| v.p99).collect())
            .unwrap_or_default();
        out.push("query_p99_ms", "ms", w, base_p99);
        out.push1("write_p50_ms", "ms", w, quantile(&write_lats, 0.5));
        out.push1("write_p99_ms", "ms", w, quantile(&write_lats, 0.99));
        out.push1(
            "ops_failed_frac",
            "ratio",
            w,
            rec.ops.iter().filter(|o| !o.ok).count() as f64 / (rec.ops.len().max(1)) as f64,
        );
        out.push1("stale_reads", "count", w, rec.stale_reads as f64);
        out.push1(
            "trace.overhead_frac",
            "ratio",
            w,
            1.0 - traced_ops_s / base_ops_s.max(1e-9),
        );
        out.push1("trace.spans", "count", w, rec.spans.len() as f64);
        crate::write_trace(cfg, &rec.spans, rec.ops.len() as u64)?;
        Ok(())
    }

    /// Builds the inventory, the read population and the ledgers.
    fn shared(&self, cfg: &RunCfg) -> Result<Shared, String> {
        let types = stratified_inventory(self.agents);
        let count = |t: &str| types.iter().filter(|x| **x == t).count();
        let c = cfg.clients;
        let max_out = (self.agents / AGENTS_PER_OUT).max(1) as usize;
        // Types by descending membership: the popular types rank first.
        let mut by_pop: Vec<&'static str> = EC2_INSTANCE_TYPES.to_vec();
        by_pop.sort_by_key(|t| std::cmp::Reverse(count(t)));
        let mut reads = Vec::new();
        for &t in &by_pop {
            for k in 1..=3usize {
                let need = 2 * k * c + if self.frontdoor_rw { max_out } else { 0 };
                if count(t) < need {
                    continue;
                }
                let attrs: Vec<Option<usize>> = if self.frontdoor_rw {
                    (0..FILTERED_ATTRS).map(Some).collect()
                } else {
                    vec![None]
                };
                for attr in attrs {
                    let zql = match attr {
                        Some(j) => {
                            format!("SELECT {k} FROM * WHERE instance = \"{t}\" AND attr{j} >= 0")
                        }
                        None => format!("SELECT {k} FROM * WHERE instance = \"{t}\""),
                    };
                    let parsed = parse_query(&zql).map_err(|e| format!("{zql}: {e}"))?;
                    reads.push(ReadQuery {
                        zql,
                        parsed,
                        itype: t,
                        k,
                        attr,
                    });
                }
            }
        }
        if reads.is_empty() {
            return Err("no instance type has enough members for any query".into());
        }
        eprintln!(
            "perfbench: {} distinct queries over {} agents",
            reads.len(),
            self.agents
        );
        let zipf = self.frontdoor_rw.then(|| Zipf::new(reads.len(), 1.1));
        Ok(Shared {
            agents: self.agents,
            per: self.per,
            frontdoor_rw: self.frontdoor_rw,
            types,
            reads,
            zipf,
            gateways: self.gateways(),
            max_out,
            seen: (0..self.agents).map(|_| AtomicU32::new(0)).collect(),
            named: (0..self.agents).map(|_| AtomicU32::new(0)).collect(),
            late_commits: AtomicU64::new(0),
            ledger: Mutex::new(fresh_ledger(self.agents)),
        })
    }

    /// End-of-window ledger check. `tcp-walk`: every daemon's `committed`
    /// counter equals the commits the benchmark saw land (and released) on
    /// its members; a commit that lands after its holder was released
    /// leaves the member reserved and shows here as a mismatch.
    ///
    /// Through the front door a hit and a commit that landed after the
    /// client looked cannot be told apart from outside, so commits no
    /// client saw advance are swept up and released here and only counted
    /// (`frontdoor.late_commits`). What is checked is that no member holds
    /// more commits than satisfied answers named it: a commit that no
    /// answer reported is a reservation the system leaked.
    fn check_ledger(&self, ready: &mut Ready, sh: &Shared) -> Result<Vec<String>, String> {
        if self.frontdoor_rw {
            let committed = sweep(&mut ready.clients[0], sh)?;
            let violations = committed
                .iter()
                .enumerate()
                .filter_map(|(m, &n)| {
                    let named = sh.named[m].load(Ordering::SeqCst);
                    (n > named).then(|| {
                        format!(
                            "member {m}: {n} commits, but satisfied answers named it {named} times"
                        )
                    })
                })
                .collect();
            return Ok(violations);
        }
        let deadline = Instant::now() + COMMIT_WAIT;
        loop {
            let mut violations = Vec::new();
            for (d, a) in ready.admin.iter_mut().enumerate() {
                let committed = u64::from(proc_status(a)?.committed);
                let seen: u64 = (0..self.agents)
                    .filter(|&m| proc_of(NodeAddr(m), self.per) as usize == d)
                    .map(|m| u64::from(sh.seen[m as usize].load(Ordering::SeqCst)))
                    .sum();
                if committed != seen {
                    violations.push(format!(
                        "daemon {d}: {committed} commits, but the benchmark saw (and \
                         released) {seen}"
                    ));
                }
            }
            if violations.is_empty() || Instant::now() >= deadline {
                return Ok(violations);
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }
}

/// Through the front door a client releases a member only when it sees
/// the member's counter advance; a commit that lands after every such
/// look is swept up here (accounted, counted as late, released). Returns
/// every member's `committed` count.
fn sweep(c: &mut Client, sh: &Shared) -> Result<Vec<u32>, String> {
    let mut committed = Vec::with_capacity(sh.agents as usize);
    for m in 0..sh.agents {
        let member = NodeAddr(m);
        let observed = member_committed(c, sh, member)?;
        let cur = sh.seen[m as usize].load(Ordering::SeqCst);
        if observed > cur {
            sh.seen[m as usize].store(observed, Ordering::SeqCst);
            let n = u64::from(observed - cur);
            sh.late_commits.fetch_add(n, Ordering::SeqCst);
            release(c, sh, member)?;
        }
        committed.push(observed);
    }
    Ok(committed)
}

/// Every member's instance type: the Gaussian mix's share of the fleet
/// for each type (largest remainders rounded up), dealt to members in a
/// fixed shuffled order. The inventory is part of the fleet, the same in
/// every run; `--seed` drives the request stream. (Drawing the inventory
/// per seed made the seed, not the code, decide a third of the latency.)
fn stratified_inventory(agents: u32) -> Vec<&'static str> {
    let mix = InstanceMix::gaussian();
    let n = agents as f64;
    let shares: Vec<f64> = (0..EC2_INSTANCE_TYPES.len())
        .map(|i| mix.weight(i) * n)
        .collect();
    let mut counts: Vec<usize> = shares.iter().map(|s| s.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..shares.len()).collect();
    by_remainder.sort_by(|&a, &b| {
        (shares[b] - shares[b].floor()).total_cmp(&(shares[a] - shares[a].floor()))
    });
    let short = agents as usize - counts.iter().sum::<usize>();
    for &i in by_remainder.iter().take(short) {
        counts[i] += 1;
    }
    let mut types: Vec<&'static str> = counts
        .iter()
        .enumerate()
        .flat_map(|(i, &c)| std::iter::repeat_n(EC2_INSTANCE_TYPES[i], c))
        .collect();
    types.shuffle(&mut SmallRng::seed_from_u64(0x1a7e_5eed));
    types
}

fn fresh_ledger(agents: u32) -> AttrLedger {
    AttrLedger {
        hist: (0..agents).map(|_| Default::default()).collect(),
        out: VecDeque::new(),
        spare: vec![false; agents as usize],
    }
}

/// A fresh fleet starts with no commits and every attribute at 0.
fn reset_ledgers(sh: &Shared) {
    for s in sh.seen.iter().chain(&sh.named) {
        s.store(0, Ordering::SeqCst);
    }
    *sh.ledger
        .lock()
        .expect("ledger lock poisoned by a panicking client") = fresh_ledger(sh.agents);
    sh.late_commits.store(0, Ordering::SeqCst);
}

/// Whether every member is attached to every tree it holds state for,
/// and holds at least `trees` of them.
fn all_attached(admin: &mut [Ctrl], agents: u32, per: u32, trees: u32) -> Result<bool, String> {
    for (p, a) in admin.iter_mut().enumerate() {
        let members: Vec<CtrlMsg> = (0..agents)
            .filter(|&m| proc_of(NodeAddr(m), per) == p as u32)
            .map(|m| to(NodeAddr(m), CtrlMsg::Status))
            .collect();
        let mut all = true;
        pipeline(a, &members, |_, r| match r {
            CtrlMsg::StatusReply {
                topics, attached, ..
            } => {
                if attached < topics || topics < trees {
                    all = false;
                }
                Ok(())
            }
            other => Err(format!("status: {other:?}")),
        })?;
        if !all {
            return Ok(false);
        }
    }
    Ok(true)
}
