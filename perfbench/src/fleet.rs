//! The system under test as a black box: `rbay-node` daemon processes,
//! control connections to them, and `/proc` accounting of their threads.

use rbay_bench::cluster::{proc_sock, CtrlMsg};
use rbay_wire::{decode_frame, encode_frame, read_frame, Hello, MAX_FRAME_LEN};
use simnet::NodeAddr;
use std::io::{self, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How one fleet is launched.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    pub agents: u32,
    pub per: u32,
    pub base_port: u16,
    pub tick_ms: u64,
    pub frontdoor: bool,
    /// `--data-dir` (with `--fsync batch`); `None` runs in memory.
    pub data_dir: Option<PathBuf>,
}

impl FleetSpec {
    pub fn procs(&self) -> u32 {
        self.agents.div_ceil(self.per)
    }
}

/// Refuses to launch over a port that already accepts connections: a
/// leftover fleet would answer this run's control connects.
pub fn check_ports_free(base_port: u16, procs: u32) -> Result<(), String> {
    for p in 0..procs {
        let addr = proc_sock(base_port, p);
        if TcpStream::connect_timeout(&addr, Duration::from_millis(100)).is_ok() {
            return Err(format!(
                "port {} already accepts connections (a leftover fleet?); refusing to start",
                addr.port()
            ));
        }
    }
    Ok(())
}

/// A running fleet. Dropping it kills and reaps every daemon, so every
/// exit path (errors, panics unwinding through the owner) cleans up.
pub struct Fleet {
    children: Vec<Child>,
    pub spec: FleetSpec,
}

impl Fleet {
    /// Checks the port range, then spawns one daemon per process slot.
    /// Daemon stderr goes to `log_dir/daemon-<i>.log`.
    pub fn spawn(
        node_bin: &Path,
        spec: &FleetSpec,
        log_dir: &Path,
        cpus: Option<&str>,
    ) -> Result<Fleet, String> {
        check_ports_free(spec.base_port, spec.procs())?;
        if let Some(dir) = &spec.data_dir {
            let _ = std::fs::remove_dir_all(dir);
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("create data dir {}: {e}", dir.display()))?;
        }
        let mut fleet = Fleet {
            children: Vec::new(),
            spec: spec.clone(),
        };
        for i in 0..spec.procs() {
            let log = std::fs::File::create(log_dir.join(format!("daemon-{i}.log")))
                .map_err(|e| format!("daemon log: {e}"))?;
            // Daemon i runs on the i-th listed CPU (round robin), so which
            // daemons share a core is the same in every run.
            let mut cmd = match cpus {
                Some(list) => {
                    let cpus: Vec<&str> = list.split(',').collect();
                    let mut c = Command::new("taskset");
                    c.args(["-c", cpus[i as usize % cpus.len()]]).arg(node_bin);
                    c
                }
                None => Command::new(node_bin),
            };
            cmd.args(["--index", &i.to_string()])
                .args(["--agents", &spec.agents.to_string()])
                .args(["--agents-per-proc", &spec.per.to_string()])
                .args(["--base-port", &spec.base_port.to_string()])
                .args(["--num-sites", "1"])
                .args(["--tick-ms", &spec.tick_ms.to_string()])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(log);
            if spec.frontdoor {
                cmd.arg("--frontdoor");
            }
            if let Some(dir) = &spec.data_dir {
                cmd.arg("--data-dir").arg(dir).args(["--fsync", "batch"]);
            }
            let child = cmd
                .spawn()
                .map_err(|e| format!("spawn {}: {e}", node_bin.display()))?;
            fleet.children.push(child);
        }
        Ok(fleet)
    }

    pub fn pids(&self) -> Vec<u32> {
        self.children.iter().map(|c| c.id()).collect()
    }

    /// Fails if any daemon has exited.
    pub fn check_alive(&mut self) -> Result<(), String> {
        for (i, c) in self.children.iter_mut().enumerate() {
            if let Ok(Some(status)) = c.try_wait() {
                return Err(format!("daemon {i} exited: {status}"));
            }
        }
        Ok(())
    }

    /// Kills and reaps every daemon, then removes the data dir.
    pub fn kill(&mut self) {
        for c in &mut self.children {
            let _ = c.kill();
        }
        for c in &mut self.children {
            let _ = c.wait();
        }
        self.children.clear();
        if let Some(dir) = &self.spec.data_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.kill();
    }
}

/// One control connection to a daemon (opened during set-up).
pub struct Ctrl {
    stream: TcpStream,
    addr: SocketAddr,
    buf: Vec<u8>,
}

/// Reply deadline for one control request.
pub const CTRL_TIMEOUT: Duration = Duration::from_secs(5);

impl Ctrl {
    /// Connects (retrying until `deadline`) and sends the control hello.
    pub fn connect(addr: SocketAddr, deadline: Instant) -> Result<Ctrl, String> {
        loop {
            match TcpStream::connect_timeout(&addr, Duration::from_millis(200)) {
                Ok(stream) => {
                    stream.set_nodelay(true).map_err(|e| e.to_string())?;
                    stream
                        .set_read_timeout(Some(CTRL_TIMEOUT))
                        .map_err(|e| e.to_string())?;
                    let mut c = Ctrl {
                        stream,
                        addr,
                        buf: Vec::with_capacity(256),
                    };
                    c.send_frame(&encode_frame(&Hello::Ctrl))
                        .map_err(|e| format!("ctrl hello to {addr}: {e}"))?;
                    return Ok(c);
                }
                Err(e) if Instant::now() >= deadline => {
                    return Err(format!("ctrl connect to {addr}: {e}"))
                }
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }

    /// Re-opens the connection after a timeout left a stale reply in
    /// flight (the stream would otherwise pair later requests with it).
    pub fn reconnect(&mut self) -> Result<(), String> {
        *self = Ctrl::connect(self.addr, Instant::now() + Duration::from_secs(5))?;
        Ok(())
    }

    fn send_frame(&mut self, frame: &[u8]) -> io::Result<()> {
        self.buf.clear();
        self.buf
            .extend_from_slice(&(frame.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(frame);
        self.stream.write_all(&self.buf)
    }

    pub fn send(&mut self, msg: &CtrlMsg) -> io::Result<()> {
        self.send_frame(&encode_frame(msg))
    }

    pub fn recv(&mut self) -> io::Result<CtrlMsg> {
        let frame = read_frame(&mut self.stream, MAX_FRAME_LEN)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "daemon closed ctrl"))?;
        decode_frame::<CtrlMsg>(&frame).map_err(io::Error::other)
    }

    pub fn request(&mut self, msg: &CtrlMsg) -> io::Result<CtrlMsg> {
        self.send(msg)?;
        self.recv()
    }
}

/// Wraps a request for one hosted member.
pub fn to(member: NodeAddr, msg: CtrlMsg) -> CtrlMsg {
    CtrlMsg::To {
        member,
        msg: Box::new(msg),
    }
}

/// The counters of one `ProcStatusReply`.
#[derive(Debug, Clone, Default)]
pub struct ProcCounters {
    pub joined: u32,
    pub committed: u32,
    pub drops: rbay_wire::DropStats,
    pub frontdoor: rbay_core::FrontdoorStats,
    pub store: rbay_store::StoreStats,
}

pub fn proc_status(ctrl: &mut Ctrl) -> Result<ProcCounters, String> {
    match ctrl.request(&CtrlMsg::ProcStatus) {
        Ok(CtrlMsg::ProcStatusReply {
            joined,
            committed,
            drops,
            frontdoor,
            store,
            ..
        }) => Ok(ProcCounters {
            joined,
            committed,
            drops,
            frontdoor,
            store,
        }),
        other => Err(format!("ProcStatus: {other:?}")),
    }
}

/// CPU and wakeup accounting of one daemon, split by thread role.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadAcct {
    /// CPU time (ns) of the main thread (the `Pack` event loop).
    pub main_cpu_ns: u64,
    /// Voluntary context switches of the main thread (blocking waits).
    pub main_wakeups: u64,
    /// CPU time (ns) of the `rbay-bus-*` event-loop thread(s).
    pub bus_cpu_ns: u64,
    pub bus_wakeups: u64,
    /// CPU time (ns) of every thread.
    pub total_cpu_ns: u64,
}

/// Reads `/proc/<pid>/task/*`: per-thread run time from `schedstat`
/// (nanoseconds) and voluntary context switches from `status`.
pub fn thread_acct(pid: u32) -> ThreadAcct {
    let mut acct = ThreadAcct::default();
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return acct;
    };
    for task in tasks.flatten() {
        let dir = task.path();
        let comm = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
        let cpu_ns = std::fs::read_to_string(dir.join("schedstat"))
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
            .unwrap_or(0);
        let wakeups = std::fs::read_to_string(dir.join("status"))
            .ok()
            .and_then(|s| status_field(&s, "voluntary_ctxt_switches:"))
            .unwrap_or(0);
        acct.total_cpu_ns += cpu_ns;
        let is_main = task.file_name().to_str() == Some(&pid.to_string());
        if is_main {
            acct.main_cpu_ns += cpu_ns;
            acct.main_wakeups += wakeups;
        } else if comm.starts_with("rbay-bus") {
            acct.bus_cpu_ns += cpu_ns;
            acct.bus_wakeups += wakeups;
        }
    }
    acct
}

/// A `Name:  <n> kB`-style numeric field of a `/proc` status file.
pub fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l[key.len()..].split_whitespace().next()?.parse().ok())
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn hwm_mib(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| status_field(&s, "VmHWM:"))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// CPU time (ns) the calling thread has used.
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// CPU time (ns) this process has used, all threads including exited
/// ones (`utime + stime` of `/proc/self/stat`, 100 Hz clock ticks).
pub fn process_cpu_ns() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<u64> = rest
        .split_whitespace()
        .map(|x| x.parse().unwrap_or(0))
        .collect();
    match (f.get(11), f.get(12)) {
        (Some(u), Some(s)) => (u + s) * 10_000_000,
        _ => 0,
    }
}
