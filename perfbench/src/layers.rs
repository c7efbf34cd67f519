//! In-process calls into single layers, fed with one op's own inputs.
//!
//! The traced run times these next to each op (as children of its `op`
//! span): the query parser, the front-door cache key, the wire codec on
//! the search-walk message the op's query would travel in, the `onGet`
//! handler the workload installs, and a durable-store append + flush of
//! the op's own write.

use pastry::{NodeId, PastryMsg};
use rbay_bench::cluster::build_node;
use rbay_core::SearchState;
use rbay_core::{query_key, Candidate, QueryId, RbayConfig, RbayMsg, RbayNode, RbayPayload};
use rbay_query::{parse_query, AttrValue, Query};
use rbay_store::{FsyncPolicy, Store, WalRecord};
use rbay_wire::{decode_frame, encode_frame};
use rbay_workloads::{password_aa_script, WORKLOAD_PASSWORD};
use scribe::ScribeMsg;
use simnet::{NodeAddr, SiteId};
use std::path::PathBuf;
use std::rc::Rc;
use std::time::Instant;

/// Timed layer calls; one instance per load thread.
pub struct Layers {
    node: RbayNode,
    store: Option<(Store, PathBuf)>,
}

/// Start and end of one timed call.
pub type Timed = (Instant, Instant);

impl Layers {
    /// A member built like a daemon's (`build_node`) with the workload's
    /// password AA installed, plus (when `store_dir` is given) a durable
    /// store under the daemons' `batch` fsync policy.
    pub fn new(agents: u32, store_dir: Option<PathBuf>) -> Result<Layers, String> {
        let mut node = build_node(0, agents.max(1), 1, RbayConfig::default());
        node.host
            .install_node_aa(&password_aa_script())
            .map_err(|e| format!("install AA: {e}"))?;
        let store = match store_dir {
            Some(dir) => {
                let _ = std::fs::remove_dir_all(&dir);
                std::fs::create_dir_all(&dir).map_err(|e| format!("store dir: {e}"))?;
                let (store, _) =
                    Store::open(&dir, FsyncPolicy::Batch).map_err(|e| format!("store: {e}"))?;
                Some((store, dir))
            }
            None => None,
        };
        Ok(Layers { node, store })
    }

    /// `parse_query` on the op's query text.
    pub fn parse(&self, zql: &str) -> (Query, Timed) {
        let t0 = Instant::now();
        let q = parse_query(std::hint::black_box(zql)).expect("benchmark queries parse");
        (q, (t0, Instant::now()))
    }

    /// `query_key` (the front-door cache key) of the op's query.
    pub fn key(&self, q: &Query) -> Timed {
        let t0 = Instant::now();
        std::hint::black_box(query_key(std::hint::black_box(q)));
        (t0, Instant::now())
    }

    /// Encodes and decodes the anycast search-walk message that carries
    /// the op's query with its result slots filled. Returns the frame
    /// size and the two timings.
    pub fn codec(
        &self,
        q: &Query,
        querier: NodeAddr,
        results: &[Candidate],
    ) -> (usize, Timed, Timed) {
        let anchor = q
            .anchors()
            .next()
            .map(|p| format!("{}={}", p.attr, p.value.canonical()))
            .unwrap_or_default();
        let topic = self.node.host.tree_topic(&anchor, SiteId(0));
        let state = SearchState {
            query_id: QueryId::new(querier, 1),
            reply_to: querier,
            query: Rc::new(q.clone()),
            password: Some(WORKLOAD_PASSWORD.into()),
            slots: results.to_vec(),
        };
        let msg: RbayMsg = PastryMsg::Route {
            key: NodeId::hash_of(anchor.as_bytes()),
            payload: ScribeMsg::AnycastStep {
                topic,
                payload: RbayPayload::Search(state),
                origin: querier,
                visited: results.iter().map(|c| c.addr).collect(),
                stack: vec![querier],
            },
            hops: 2,
            scope: Some(SiteId(0)),
        };
        let t0 = Instant::now();
        let frame = encode_frame(std::hint::black_box(&msg));
        let t1 = Instant::now();
        let back = decode_frame::<RbayMsg>(std::hint::black_box(&frame)).expect("frame decodes");
        let t2 = Instant::now();
        std::hint::black_box(back);
        (frame.len(), (t0, t1), (t1, t2))
    }

    /// `check_on_get` with the workload's AA and password.
    pub fn onget(&mut self, caller: NodeAddr) -> Timed {
        let t0 = Instant::now();
        let ok = self.node.host.check_on_get(
            Some("instance"),
            &caller.to_string(),
            Some(WORKLOAD_PASSWORD),
        );
        let t1 = Instant::now();
        assert!(ok, "the workload password passes onGet");
        (t0, t1)
    }

    /// Appends the op's write as a WAL record and flushes it.
    pub fn store_write(&mut self, attr: &str, value: &AttrValue) -> Option<(Timed, Timed)> {
        let (store, _) = self.store.as_mut()?;
        let rec = WalRecord::AttrPut {
            attr: attr.to_owned(),
            value: value.clone(),
        };
        let t0 = Instant::now();
        store
            .append(&rec)
            .expect("WAL append in the benchmark's own dir");
        let t1 = Instant::now();
        store.flush().expect("WAL flush in the benchmark's own dir");
        let t2 = Instant::now();
        Some(((t0, t1), (t1, t2)))
    }
}

impl Drop for Layers {
    fn drop(&mut self) {
        if let Some((_, dir)) = self.store.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
