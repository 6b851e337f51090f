//! The system under test from the outside: a `marioh serve` child
//! process, a one-request-per-connection HTTP client, and procfs reads
//! for memory.

use std::fs::File;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);
const IO_TIMEOUT: Duration = Duration::from_secs(30);
const BOOT_TIMEOUT: Duration = Duration::from_secs(20);

/// One HTTP response.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: String,
}

/// Sends one request on a fresh connection (`Connection: close`, the
/// server's only mode) and reads the whole response. No retries.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> io::Result<Response> {
    let mut stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let invalid = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_owned());
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| invalid("response has no header end"))?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| invalid("header is not UTF-8"))?;
    let status = head
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid("malformed status line"))?;
    let body =
        String::from_utf8(raw[split + 4..].to_vec()).map_err(|_| invalid("body is not UTF-8"))?;
    Ok(Response { status, body })
}

/// A running `marioh serve` process bound to an ephemeral port.
pub struct Server {
    child: Option<Child>,
    pub addr: SocketAddr,
}

impl Server {
    /// Launches `marioh serve <flags> --addr 127.0.0.1:0`, with stderr
    /// going to `log`, and returns once the banner names the port and
    /// `/healthz` answers 200.
    pub fn start(marioh: &Path, flags: &[String], log: &Path) -> Result<Server, String> {
        let stderr = File::create(log).map_err(|e| format!("create {}: {e}", log.display()))?;
        let child = Command::new(marioh)
            .arg("serve")
            .args(flags)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::from(stderr))
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", marioh.display()))?;
        let mut server = Server {
            child: Some(child),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let t0 = Instant::now();
        loop {
            let text = std::fs::read_to_string(log).unwrap_or_default();
            if let Some(rest) = text.split("listening on http://").nth(1) {
                let addr = rest.split_ascii_whitespace().next().unwrap_or("");
                server.addr = addr
                    .parse()
                    .map_err(|_| format!("bad banner address {addr:?}"))?;
                break;
            }
            if let Some(status) = server.child_mut().try_wait().map_err(|e| e.to_string())? {
                return Err(format!(
                    "marioh serve exited with {status}: {}",
                    text.trim()
                ));
            }
            if t0.elapsed() > BOOT_TIMEOUT {
                return Err("marioh serve printed no banner".to_owned());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        match request(server.addr, "GET", "/healthz", "") {
            Ok(r) if r.status == 200 => Ok(server),
            Ok(r) => Err(format!("/healthz answered {}", r.status)),
            Err(e) => Err(format!("/healthz: {e}")),
        }
    }

    fn child_mut(&mut self) -> &mut Child {
        self.child.as_mut().expect("server process is running")
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().expect("server process is running").id()
    }

    /// Peak resident set (`VmHWM`) of the server, plus its shard worker
    /// children, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        let pid = self.pid();
        let kb: u64 = std::iter::once(pid)
            .chain(children(pid))
            .filter_map(vm_hwm_kb)
            .sum();
        kb as f64 / 1024.0
    }

    /// Kills the server, reaps it, and waits until its shard workers
    /// (which exit when their dispatcher connection closes) are gone.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let Some(mut child) = self.child.take() else {
            return;
        };
        let kids = children(child.id());
        let _ = child.kill();
        let _ = child.wait();
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut live: Vec<u32> = kids;
        while !live.is_empty() {
            live.retain(|pid| alive(*pid));
            if live.is_empty() {
                break;
            }
            if Instant::now() > deadline {
                for pid in &live {
                    let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
                }
                std::thread::sleep(Duration::from_millis(50));
                live.retain(|pid| alive(*pid));
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Child PIDs of `pid`, across all of its threads (shard workers are
/// respawned from dispatcher threads, not just the main one).
pub fn children(pid: u32) -> Vec<u32> {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return Vec::new();
    };
    let mut out: Vec<u32> = tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("children")).ok())
        .flat_map(|s| {
            s.split_ascii_whitespace()
                .filter_map(|p| p.parse().ok())
                .collect::<Vec<u32>>()
        })
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_ascii_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// True while `pid` exists and is not a zombie.
fn alive(pid: u32) -> bool {
    match std::fs::read_to_string(format!("/proc/{pid}/stat")) {
        Ok(stat) => stat
            .rsplit_once(')')
            .and_then(|(_, rest)| rest.split_ascii_whitespace().next())
            .is_some_and(|state| state != "Z" && state != "X"),
        Err(_) => false,
    }
}

/// Sum of every series named `name` in a Prometheus exposition, across
/// labels: a counter or gauge family, or a histogram's `<name>_sum` /
/// `<name>_count`.
pub fn metric_total(exposition: &str, name: &str) -> f64 {
    exposition
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            let family = series.split('{').next()?;
            (family == name)
                .then(|| value.parse::<f64>().ok())
                .flatten()
        })
        .sum()
}

/// A scratch directory inside the working directory, removed on drop.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn new(root: &Path, name: &str) -> io::Result<ScratchDir> {
        let dir = root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_totals_sum_labelled_series_only_of_the_family() {
        let text = "# TYPE marioh_x_total counter\nmarioh_x_total{shard=\"0\"} 3\nmarioh_x_total{shard=\"1\"} 4\nmarioh_x_total_bytes 100\nmarioh_y 1\n";
        assert_eq!(metric_total(text, "marioh_x_total"), 7.0);
        assert_eq!(metric_total(text, "marioh_y"), 1.0);
        assert_eq!(metric_total(text, "marioh_z"), 0.0);
    }
}
