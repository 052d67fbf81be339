//! The daemon under test — a real `ibox serve` child process — and the
//! single keep-alive client that drives it.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ibox_serve::HttpClient;

use crate::plan::REFIT_CHUNKS;

/// Per-request socket timeout; a 9 MB fit answers in well under a second.
const TIMEOUT: Duration = Duration::from_secs(60);
/// The client redials after this many requests on one connection. The
/// daemon closes a keep-alive connection after 1000 requests anyway
/// (`ServeConfig::keep_alive_requests`); redialing well before that, at a
/// fixed count, means every run spreads its connections over the
/// daemon's workers the same way, whatever its throughput.
const REQUESTS_PER_CONNECTION: usize = 200;

/// A running `ibox serve` with a fresh model dir on an ephemeral
/// loopback port. Dropping it kills the process and waits for it.
pub struct Daemon {
    child: Child,
    /// `host:port` the daemon listens on.
    pub addr: String,
}

impl Daemon {
    /// Spawn `ibox serve` over `model_dir` with tracing off, the refit
    /// cadence of [`REFIT_CHUNKS`], and every other setting at its default.
    /// Returns once the daemon has printed its listening address.
    pub fn spawn(ibox: &Path, model_dir: &Path) -> Result<Daemon, String> {
        std::fs::create_dir_all(model_dir)
            .map_err(|e| format!("cannot create {}: {e}", model_dir.display()))?;
        let log_path = model_dir.with_extension("log");
        let log = std::fs::File::create(&log_path)
            .map_err(|e| format!("cannot create {}: {e}", log_path.display()))?;
        let mut child = Command::new(ibox)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0", "--refit-chunks", &REFIT_CHUNKS.to_string()])
            .arg("--model-cache")
            .arg(model_dir)
            .env("IBOX_TRACE", "off")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", ibox.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        // The daemon prints `listening on http://<addr>` once bound; EOF
        // means it exited first.
        let read = BufReader::new(stdout).read_line(&mut line);
        let mut daemon = Daemon { child, addr: String::new() };
        match (read, line.trim().strip_prefix("listening on http://")) {
            (Ok(_), Some(addr)) => daemon.addr = addr.to_string(),
            _ => {
                return Err(format!(
                    "daemon did not start (see {}): {:?}",
                    log_path.display(),
                    line.trim()
                ))
            }
        }
        Ok(daemon)
    }

    /// Poll `GET /healthz` until it answers 200.
    pub fn wait_healthy(&self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let url = format!("http://{}/healthz", self.addr);
            if let Ok((200, _)) = ibox_serve::request_url(&url, "GET", None, TIMEOUT) {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err("daemon never answered /healthz".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// The daemon's peak resident set (`VmHWM`), MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    /// Graceful stop: `POST /shutdown`, then wait for the process to exit
    /// (killing it if it has not within 30 s).
    pub fn stop(mut self) -> Result<(), String> {
        let url = format!("http://{}/shutdown", self.addr);
        let asked = ibox_serve::request_url(&url, "POST", Some(b"{}"), TIMEOUT);
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return match (asked, status.success()) {
                    (Ok(_), true) => Ok(()),
                    (asked, _) => Err(format!("daemon shutdown: {asked:?}, exit {status}")),
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("daemon did not exit within 30 s of /shutdown".to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One closed-loop keep-alive client.
pub struct Client {
    addr: String,
    conn: Option<HttpClient>,
    served: usize,
}

/// A finished request: status and body, or the transport error.
pub type Reply = Result<(u16, Vec<u8>), String>;

impl Client {
    /// A client of the daemon at `addr` (connects lazily).
    pub fn new(addr: &str) -> Self {
        Client { addr: addr.to_string(), conn: None, served: 0 }
    }

    /// Send one request and read the whole response. Returns the reply
    /// and the latency in ms, from the first request byte written to the
    /// last response byte read. Dialing is not timed.
    pub fn call(&mut self, method: &str, path: &str, body: &[u8]) -> (Reply, f64) {
        if self.served >= REQUESTS_PER_CONNECTION {
            self.conn = None;
        }
        if self.conn.is_none() {
            match HttpClient::connect(&self.addr, TIMEOUT) {
                Ok(c) => {
                    self.conn = Some(c);
                    self.served = 0;
                }
                Err(e) => return (Err(e), 0.0),
            }
        }
        let conn = self.conn.as_mut().expect("connected above");
        let t0 = Instant::now();
        let reply = conn.request(method, path, Some(body));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.served += 1;
        if reply.is_err() {
            self.conn = None;
        }
        (reply, ms)
    }
}

/// Remove `dir` (model dirs, daemon logs), then flush the file system so
/// later work does not run under this one's write-back.
pub fn clean(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    settle();
}

/// Flush dirty file-system state (`sync`), so pending write-back from
/// earlier work does not land inside a measurement.
pub fn settle() {
    let _ = Command::new("sync").status();
}
