//! An in-process `fleetd` daemon and the closed-loop HTTP client that loads
//! it.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fleetd::{Daemon, DaemonConfig};

use crate::trace::nanos;

/// A daemon serving on a loopback port from its own thread.
pub struct Running {
    pub addr: SocketAddr,
    pub spool: PathBuf,
    thread: JoinHandle<std::io::Result<()>>,
}

/// Binds a daemon on `127.0.0.1:0` over a fresh spool and waits until it
/// answers `GET /jobs`. Returns the daemon and the time that took.
pub fn start(spool: &Path, workers: usize) -> Result<(Running, Duration), String> {
    let _ = std::fs::remove_dir_all(spool);
    let started = Instant::now();
    let config = DaemonConfig {
        addr: "127.0.0.1:0".into(),
        spool: spool.to_path_buf(),
        workers,
        queue_depth: 8,
    };
    let daemon = Daemon::bind(&config).map_err(|e| e.to_string())?;
    let addr = daemon.local_addr().map_err(|e| e.to_string())?;
    let thread = std::thread::spawn(move || daemon.run());
    let running = Running {
        addr,
        spool: spool.to_path_buf(),
        thread,
    };
    for _ in 0..2000 {
        if matches!(request(addr, "GET", "/jobs", ""), Ok((200, _))) {
            return Ok((running, started.elapsed()));
        }
        std::thread::sleep(Duration::from_micros(500));
    }
    running.stop()?;
    Err("the daemon never answered GET /jobs".into())
}

impl Running {
    /// Drains the daemon, joins its thread and removes its spool.
    pub fn stop(self) -> Result<(), String> {
        let (status, _) = request(self.addr, "POST", "/shutdown", "")?;
        let served = self
            .thread
            .join()
            .map_err(|_| "the daemon thread panicked".to_string())?;
        served.map_err(|e| e.to_string())?;
        let _ = std::fs::remove_dir_all(&self.spool);
        if status == 200 {
            Ok(())
        } else {
            Err(format!("POST /shutdown answered {status}"))
        }
    }
}

/// One HTTP/1.1 request on a fresh connection; returns (status, body).
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, Vec<u8>), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .map_err(|e| format!("write: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response without a header end")?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| "non-UTF-8 header")?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("response without a status")?;
    Ok((status, raw[split + 4..].to_vec()))
}

/// When the closed loop stops submitting.
pub enum Until {
    Deadline(Instant),
    Jobs(usize),
}

/// What a closed-loop session measured. Timings are of jobs that completed
/// before the stop condition; jobs still in flight then are finished and
/// checked, but not timed.
#[derive(Default)]
pub struct LoopStats {
    pub job_ms: Vec<f64>,
    pub submit_us: Vec<f64>,
    pub report_us: Vec<f64>,
    pub queue_wait_ms: Vec<f64>,
    pub run_ms: Vec<f64>,
    /// Seconds from the first submit to the last timed completion.
    pub span_s: f64,
    pub jobs_timed: u64,
    pub jobs_checked: u64,
    /// The last job whose report was fetched and checked.
    pub last_checked: Option<u64>,
    pub requests: u64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl LoopStats {
    /// Adds a later session of the same loop: samples and counts add up, and
    /// the spans add, so rates stay jobs over the time spent timing them.
    pub fn absorb(&mut self, later: LoopStats) {
        self.job_ms.extend(later.job_ms);
        self.submit_us.extend(later.submit_us);
        self.report_us.extend(later.report_us);
        self.queue_wait_ms.extend(later.queue_wait_ms);
        self.run_ms.extend(later.run_ms);
        self.span_s += later.span_s;
        self.jobs_timed += later.jobs_timed;
        self.jobs_checked += later.jobs_checked;
        self.last_checked = later.last_checked.or(self.last_checked);
        self.requests += later.requests;
        self.attempted += later.attempted;
        self.failed += later.failed;
        self.errors.extend(later.errors);
    }
}

struct Slot {
    id: u64,
    submitted: Instant,
    running_seen: Option<Instant>,
    next_poll: Instant,
}

/// Keeps `in_flight` jobs of `spec_json` in the daemon: each is submitted,
/// polled with `GET /jobs/{id}` every `poll`, and its report fetched once
/// done and compared with `expected`; then the next job is submitted.
pub fn closed_loop(
    addr: SocketAddr,
    spec_json: &str,
    expected: &[u8],
    in_flight: usize,
    poll: Duration,
    until: Until,
) -> LoopStats {
    let mut stats = LoopStats::default();
    let started = Instant::now();
    let mut last_done = started;
    let mut submitted = 0usize;
    let stop = |submitted: usize| match until {
        Until::Deadline(deadline) => Instant::now() >= deadline,
        Until::Jobs(jobs) => submitted >= jobs,
    };
    let mut slots: Vec<Option<Slot>> = (0..in_flight).map(|_| None).collect();
    loop {
        for slot in slots.iter_mut() {
            if slot.is_none() && !stop(submitted) {
                *slot = submit(addr, spec_json, poll, &mut stats);
                submitted += 1;
            }
        }
        if slots.iter().all(Option::is_none) {
            break;
        }
        let now = Instant::now();
        let due = slots
            .iter()
            .flatten()
            .map(|s| s.next_poll)
            .min()
            .unwrap_or(now);
        if due > now {
            std::thread::sleep(due - now);
        }
        let timing = match until {
            Until::Deadline(deadline) => Instant::now() < deadline,
            Until::Jobs(_) => true,
        };
        for entry in slots.iter_mut() {
            let Some(slot) = entry else { continue };
            if slot.next_poll > Instant::now() {
                continue;
            }
            slot.next_poll += poll;
            let answer = request(addr, "GET", &format!("/jobs/{}", slot.id), "");
            let seen = Instant::now();
            stats.requests += 1;
            stats.attempted += 1;
            let state = match answer {
                Ok((200, body)) => job_state(&body),
                other => {
                    stats.failed += 1;
                    stats
                        .errors
                        .push(format!("GET /jobs/{}: {other:?}", slot.id));
                    *entry = None;
                    continue;
                }
            };
            match state.as_str() {
                "queued" => {}
                "running" => {
                    slot.running_seen.get_or_insert(seen);
                }
                "done" => {
                    let sent = Instant::now();
                    let report = request(addr, "GET", &format!("/jobs/{}/report", slot.id), "");
                    let received = Instant::now();
                    stats.requests += 1;
                    stats.attempted += 1;
                    stats.jobs_checked += 1;
                    stats.last_checked = Some(slot.id);
                    match report {
                        Ok((200, body)) if body == expected => {
                            if timing {
                                stats.report_us.push(nanos(received - sent) as f64 / 1e3);
                                stats
                                    .job_ms
                                    .push(nanos(received - slot.submitted) as f64 / 1e6);
                                if let Some(running) = slot.running_seen {
                                    let queued = running - slot.submitted;
                                    stats.queue_wait_ms.push(nanos(queued) as f64 / 1e6);
                                    stats.run_ms.push(nanos(seen - running) as f64 / 1e6);
                                }
                                stats.jobs_timed += 1;
                                last_done = received;
                            }
                        }
                        Ok((200, _)) => {
                            stats.failed += 1;
                            stats.errors.push(format!(
                                "job {} served a report that differs from the in-process one",
                                slot.id
                            ));
                        }
                        other => {
                            stats.failed += 1;
                            stats
                                .errors
                                .push(format!("GET report of {}: {other:?}", slot.id));
                        }
                    }
                    *entry = None;
                }
                other => {
                    stats.failed += 1;
                    stats.errors.push(format!("job {} ended {other}", slot.id));
                    *entry = None;
                }
            }
        }
    }
    stats.span_s = (last_done - started).as_secs_f64();
    stats
}

/// Before a status burst: a pause for the load's threads to wind down, then
/// untimed requests that warm the request path. Without them the first
/// request of each burst took 3-4x the median.
const BURST_SETTLE: Duration = Duration::from_millis(20);
const BURST_WARM_UP: usize = 4;

/// Times `count` back-to-back `GET path` round trips, after a settle pause
/// and untimed warm-up requests, with every thread of the process on one
/// CPU, and appends each time (in µs) to `samples`. Returns how many
/// requests were made and how many failed.
///
/// Callers run it while nothing else does: on a machine whose cores are all
/// busy, a round trip mostly measures how soon the kernel schedules the
/// daemon's threads, not the daemon.
pub fn status_burst(
    addr: SocketAddr,
    path: &str,
    count: usize,
    samples: &mut Vec<f64>,
) -> (u64, u64) {
    std::thread::sleep(BURST_SETTLE);
    let _pinned = crate::affinity::pin_process();
    let mut failed = 0;
    for i in 0..BURST_WARM_UP + count {
        let sent = Instant::now();
        match request(addr, "GET", path, "") {
            Ok((200, _)) if i >= BURST_WARM_UP => samples.push(nanos(sent.elapsed()) as f64 / 1e3),
            Ok((200, _)) => {}
            _ => failed += 1,
        }
    }
    ((BURST_WARM_UP + count) as u64, failed)
}

fn submit(
    addr: SocketAddr,
    spec_json: &str,
    poll: Duration,
    stats: &mut LoopStats,
) -> Option<Slot> {
    let sent = Instant::now();
    let answer = request(addr, "POST", "/jobs", spec_json);
    let done = Instant::now();
    stats.requests += 1;
    stats.attempted += 1;
    match answer {
        Ok((202, body)) => {
            let Some(id) = json_u64(&body, "id") else {
                stats.failed += 1;
                stats
                    .errors
                    .push("POST /jobs answered without an id".into());
                return None;
            };
            stats.submit_us.push(nanos(done - sent) as f64 / 1e3);
            Some(Slot {
                id,
                submitted: sent,
                running_seen: None,
                next_poll: done + poll,
            })
        }
        other => {
            stats.failed += 1;
            stats.errors.push(format!("POST /jobs: {other:?}"));
            None
        }
    }
}

/// The `state` field of a compact `JobStatus` body.
pub fn job_state(body: &[u8]) -> String {
    let text = String::from_utf8_lossy(body);
    text.split("\"state\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .unwrap_or("unparsable")
        .to_string()
}

/// A top-level unsigned field of a compact JSON body.
pub fn json_u64(body: &[u8], field: &str) -> Option<u64> {
    let text = String::from_utf8_lossy(body);
    let rest = text.split(&format!("\"{field}\":")).nth(1)?;
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}
