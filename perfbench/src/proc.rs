//! Child processes under measurement: a freshly booted `hpcfail-serve`
//! per sample, and the peak-memory probe shared with `repro` runs.

use hpcfail_serve::client::Client;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// `VmHWM` (peak resident set) of process `pid` in MiB, if readable.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A running `hpcfail-serve serve` process. Dropping it kills the
/// process if [`Server::shutdown`] was not called.
pub struct Server {
    child: Child,
    addr: String,
    // Held open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Boots `hpcfail-serve serve` on an ephemeral loopback port with
    /// `args` and waits for the first 200 on `/v1/healthz`. Returns the
    /// server and the time from spawn to that 200.
    pub fn boot(bin: &Path, args: &[String]) -> Result<(Server, Duration), String> {
        let started = Instant::now();
        let mut child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0", "--quiet"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut stdout = BufReader::new(stdout);
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = match (read, line.strip_prefix("ADDR ")) {
            (Ok(_), Some(addr)) => addr.trim().to_owned(),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("server printed no address (got {line:?})"));
            }
        };
        let mut server = Server {
            child,
            addr,
            _stdout: stdout,
        };
        let client = server.client();
        loop {
            if let Ok(r) = client.get("/v1/healthz") {
                if r.status == 200 {
                    return Ok((server, started.elapsed()));
                }
            }
            if started.elapsed() > Duration::from_secs(60) {
                server.kill();
                return Err("server never answered /v1/healthz".to_owned());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// A client for this server.
    pub fn client(&self) -> Client {
        Client::new(self.addr.clone())
    }

    /// The process's peak resident set so far, in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(self.child.id())
    }

    /// Asks the server to stop and waits for it to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = self.client().post("/v1/shutdown", "", &[]);
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(10)),
                Err(e) => return Err(e.to_string()),
            }
        }
        self.kill();
        Err(format!(
            "server did not stop after /v1/shutdown ({asked:?})"
        ))
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.kill();
        }
    }
}
