//! One `diophantus` child process, driven from the benchmark's single thread.
//!
//! The child's stdin and stdout are Unix stream sockets rather than pipes:
//! the benchmark's end of stdin is non-blocking and reads from stdout wait at
//! most one tick, so one thread can stream input, collect verdict lines as
//! they arrive and enforce a wall-clock deadline without a helper thread.
//! A child that outlives its deadline is killed and the run counts it as a
//! failure instead of hanging.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::os::fd::OwnedFd;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// The longest a read of the child's output blocks before the benchmark
/// checks its deadline again.
const TICK: Duration = Duration::from_millis(10);

/// A running child with line-oriented, timestamped output.
pub struct Spawned {
    child: Child,
    input: Option<UnixStream>,
    output: UnixStream,
    /// Output bytes after the last complete line.
    partial: Vec<u8>,
    /// Reused for every read of the child's output.
    chunk: Vec<u8>,
    lines: VecDeque<(String, Instant)>,
    eof: bool,
    deadline: Instant,
    /// When `spawn` was called.
    pub spawned: Instant,
    /// Sample `VmHWM` on every output poll, for children that exit on
    /// their own before it could be read after the last line.
    pub poll_rss: bool,
    peak_kb: Option<u64>,
    status: Option<ExitStatus>,
}

impl Spawned {
    /// Spawns `binary args…`; every later call fails once `deadline` passes.
    pub fn spawn(binary: &Path, args: &[&str], deadline: Instant) -> Result<Spawned, String> {
        let io = |e: std::io::Error| format!("cannot set up the child's stdio: {e}");
        let (input, child_in) = UnixStream::pair().map_err(io)?;
        let (output, child_out) = UnixStream::pair().map_err(io)?;
        input.set_nonblocking(true).map_err(io)?;
        output.set_read_timeout(Some(TICK)).map_err(io)?;
        let mut command = Command::new(binary);
        command
            .args(args)
            .stdin(Stdio::from(OwnedFd::from(child_in)))
            .stdout(Stdio::from(OwnedFd::from(child_out)))
            .stderr(Stdio::inherit());
        let spawned = Instant::now();
        let child =
            command.spawn().map_err(|e| format!("cannot spawn {}: {e}", binary.display()))?;
        // The command still holds the child's socket ends; drop them so the
        // child sees end of input when the benchmark closes its own end.
        drop(command);
        Ok(Spawned {
            child,
            input: Some(input),
            output,
            partial: Vec::new(),
            chunk: vec![0; 1 << 16],
            lines: VecDeque::new(),
            eof: false,
            deadline,
            spawned,
            poll_rss: false,
            peak_kb: None,
            status: None,
        })
    }

    fn check_deadline(&mut self) -> Result<(), String> {
        if Instant::now() < self.deadline {
            return Ok(());
        }
        let _ = self.child.kill();
        self.status = self.child.wait().ok();
        Err("the child missed its wall-clock deadline and was killed".to_string())
    }

    /// Waits up to one tick for output and splits what arrives into
    /// timestamped lines.
    fn poll(&mut self) -> Result<(), String> {
        self.check_deadline()?;
        if self.poll_rss {
            self.sample_rss();
        }
        match self.output.read(&mut self.chunk) {
            Ok(0) => self.eof = true,
            Ok(n) => {
                let at = Instant::now();
                self.partial.extend_from_slice(&self.chunk[..n]);
                let mut start = 0;
                while let Some(end) = self.partial[start..].iter().position(|&b| b == b'\n') {
                    let line = String::from_utf8_lossy(&self.partial[start..start + end]);
                    self.lines.push_back((line.into_owned(), at));
                    start += end + 1;
                }
                self.partial.drain(..start);
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("reading the child's output: {e}")),
        }
        Ok(())
    }

    /// Writes `bytes` to the child's stdin, collecting output whenever the
    /// input side is full. Returns when the last byte was handed over.
    pub fn write_all(&mut self, mut bytes: &[u8]) -> Result<Instant, String> {
        while !bytes.is_empty() {
            let input = self.input.as_mut().ok_or("the child's input is already closed")?;
            match input.write(bytes) {
                Ok(n) => bytes = &bytes[n..],
                Err(e) if e.kind() == ErrorKind::WouldBlock => self.poll()?,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("writing the child's input: {e}")),
            }
        }
        Ok(Instant::now())
    }

    /// The next output line and when it was read; `None` at end of output.
    pub fn next_line(&mut self) -> Result<Option<(String, Instant)>, String> {
        loop {
            if let Some(line) = self.lines.pop_front() {
                return Ok(Some(line));
            }
            if self.eof {
                if !self.partial.is_empty() {
                    let line = String::from_utf8_lossy(&self.partial).into_owned();
                    self.partial.clear();
                    return Ok(Some((line, Instant::now())));
                }
                return Ok(None);
            }
            self.poll()?;
        }
    }

    /// Signals end of input to the child.
    pub fn close_input(&mut self) {
        self.input = None;
    }

    /// Reads the child's `VmHWM` (peak resident set) and keeps the highest
    /// reading; a child that already exited has none.
    pub fn sample_rss(&mut self) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let kb = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse::<u64>()
            .ok()?;
        self.peak_kb = Some(self.peak_kb.map_or(kb, |p| p.max(kb)));
        Some(kb)
    }

    /// The highest `VmHWM` sampled, in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        self.peak_kb.map(|kb| kb as f64 / 1024.0)
    }

    /// Closes input, drains any remaining output and waits for the child to
    /// exit, all within the deadline. Returns the lines drained.
    pub fn finish(&mut self) -> Result<(Vec<String>, ExitStatus), String> {
        self.close_input();
        let mut rest = Vec::new();
        while let Some((line, _)) = self.next_line()? {
            rest.push(line);
        }
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    self.status = Some(status);
                    return Ok((rest, status));
                }
                Ok(None) => {
                    self.check_deadline()?;
                    std::thread::sleep(Duration::from_micros(200));
                }
                Err(e) => return Err(format!("waiting for the child: {e}")),
            }
        }
    }
}

impl Drop for Spawned {
    fn drop(&mut self) {
        if self.status.is_none() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
