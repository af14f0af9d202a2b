//! `serve-mix`: an in-process `unitherm-serve` on `127.0.0.1:0` with a
//! two-thread simulation budget, driven closed-loop by two HTTP clients
//! (one tenant each). A client submits with `POST /jobs`, reads
//! `GET /jobs/{id}/events` until the `done` frame, checks it, and submits
//! the next job. Finished jobs stay in the service, so heap growth shows.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use unitherm_experiments::scenario_file;
use unitherm_serve::{JobQueue, Limits, QueueConfig, ServeConfig, Server};

use crate::catalogue::{self, Shape};
use crate::outcome::{Job, Outcome};
use crate::pipeline::{self, Journal, RunOut};
use crate::probe::{pool_overhead_us, Probes};
use crate::rng::Rng;
use crate::stats::{mean, median};
use crate::{alloc, pipeline_layers, trace, SetupSampler};
use crate::{Size, Traced};

/// Closed-loop clients, one tenant each.
pub const CLIENTS: usize = 2;
/// The service's simulation-thread budget.
pub const MAX_THREADS: usize = 2;
/// `peak_heap_bytes` is the peak up to this many finished jobs, so the
/// figure does not grow with throughput (finished jobs are retained).
/// Large enough that the retained jobs, not which two transient report
/// serializations happened to overlap, make most of it.
pub const PEAK_AFTER_JOBS: usize = 128;
/// Seeded variants of each shape (see `sweep::VARIANTS`).
pub const VARIANTS: usize = 4;
/// A job that has not finished streaming after this long has failed.
const TIMEOUT: Duration = Duration::from_secs(60);

/// One catalogue entry and what a direct run of it produces.
pub struct Entry {
    /// Catalogue shape.
    pub shape: Shape,
    /// Scenario JSON (the `POST /jobs` body).
    pub text: String,
    /// Reference report digest.
    pub expected_digest: String,
    /// Node-ticks the job simulates.
    pub node_ticks: u64,
    /// Reference journal as JSONL, which the SSE `data:` lines of the
    /// `journal` frames must reproduce byte for byte.
    pub expected_journal: String,
}

/// The generated job mix.
pub struct ServeMix {
    /// [`VARIANTS`] entries per catalogue shape; the first `shapes` are one
    /// of each.
    pub entries: Vec<Entry>,
    /// Catalogue shapes.
    pub shapes: usize,
    /// Seeded job order: shuffled passes over the entries, so every pass
    /// has the same composition.
    pub order: Vec<usize>,
    /// `PEAK_AFTER_JOBS`, smaller for tiny runs.
    pub peak_after: usize,
}

/// Generates the mix for `seed` and computes the reference results.
pub fn prepare(seed: u64, size: Size) -> Result<ServeMix, String> {
    let mut rng = Rng::new(seed, 3);
    let mut shapes = catalogue::serve_mix();
    if size == Size::Tiny {
        for s in &mut shapes {
            s.nodes = s.nodes.min(8);
            s.max_time_s = 5.0;
        }
    }
    let mut entries = Vec::with_capacity(VARIANTS * shapes.len());
    for shape in (0..VARIANTS).flat_map(|_| shapes.iter().cloned()) {
        let text = scenario_file::to_json(&shape.scenario(&mut rng));
        let reference = pipeline::reference(&pipeline::parse(&text)?, true)?;
        let mut expected_journal = String::new();
        for rec in &reference.records {
            expected_journal.push_str(&serde_json::to_string(rec).map_err(|e| e.to_string())?);
            expected_journal.push('\n');
        }
        entries.push(Entry {
            node_ticks: reference.ticks * shape.nodes as u64,
            shape,
            text,
            expected_digest: reference.digest,
            expected_journal,
        });
    }
    let mut order = Vec::new();
    for _ in 0..64 {
        let mut pass: Vec<usize> = (0..entries.len()).collect();
        rng.shuffle(&mut pass);
        order.extend(pass);
    }
    let peak_after = if size == Size::Tiny { 4 } else { PEAK_AFTER_JOBS };
    Ok(ServeMix { entries, shapes: shapes.len(), order, peak_after })
}

/// Binds the service on an ephemeral loopback port and starts its accept
/// loop. Returns the address and the seconds `Server::bind` took.
///
/// `Server::run` accepts forever and has no shutdown, so its thread (and
/// the runner threads `bind` starts) end with the benchmark process.
pub fn start_server() -> Result<(SocketAddr, f64), String> {
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        max_threads: MAX_THREADS,
        queue: QueueConfig::default(),
        limits: Limits::default(),
    };
    let t = Instant::now();
    let server = Server::bind(&cfg).map_err(|e| format!("bind: {e}"))?;
    let bind_s = t.elapsed().as_secs_f64();
    let addr = server.local_addr().map_err(|e| format!("local_addr: {e}"))?;
    std::thread::Builder::new()
        .name("serve-accept".to_string())
        .spawn(move || server.run())
        .map_err(|e| format!("spawn accept loop: {e}"))?;
    Ok((addr, bind_s))
}

/// A client-side failure; `rejected` marks a 429 or 503 refusal.
#[derive(Debug)]
struct ClientError {
    message: String,
    rejected: bool,
}

impl ClientError {
    fn new(message: impl Into<String>) -> Self {
        Self { message: message.into(), rejected: false }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        Self::new(format!("I/O: {e}"))
    }
}

fn connect(addr: SocketAddr) -> Result<TcpStream, ClientError> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(TIMEOUT))?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Parses the status code out of an HTTP/1.1 status line.
fn status_code(line: &str) -> Result<u16, ClientError> {
    line.split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| ClientError::new(format!("bad status line {line:?}")))
}

/// `POST /jobs`; returns the job id from the 202 reply.
fn submit(addr: SocketAddr, tenant: &str, body: &str) -> Result<u64, ClientError> {
    let mut stream = connect(addr)?;
    let head = format!(
        "POST /jobs HTTP/1.1\r\nHost: {addr}\r\nX-Unitherm-Tenant: {tenant}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    let mut reply = String::new();
    stream.read_to_string(&mut reply)?;
    let status = status_code(reply.lines().next().unwrap_or(""))?;
    if status != 202 {
        return Err(ClientError {
            message: format!("POST /jobs answered {status}"),
            rejected: status == 429 || status == 503,
        });
    }
    let body = reply.split("\r\n\r\n").nth(1).unwrap_or("");
    body.split("\"id\":")
        .nth(1)
        .map(|rest| rest.chars().take_while(char::is_ascii_digit).collect::<String>())
        .and_then(|digits| digits.parse().ok())
        .ok_or_else(|| ClientError::new(format!("no job id in {body:?}")))
}

/// What a job's SSE stream delivered.
struct Stream {
    first_event: Option<Instant>,
    journal: String,
    journal_frame_bytes: usize,
    done: String,
    done_frame_bytes: usize,
}

/// `GET /jobs/{id}/events` until the `done` frame.
fn stream(addr: SocketAddr, id: u64) -> Result<Stream, ClientError> {
    let mut conn = connect(addr)?;
    let head = format!(
        "GET /jobs/{id}/events HTTP/1.1\r\nHost: {addr}\r\nAccept: text/event-stream\r\nConnection: close\r\n\r\n"
    );
    conn.write_all(head.as_bytes())?;
    let mut reader = BufReader::new(conn);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status = status_code(&line)?;
    if status != 200 {
        return Err(ClientError::new(format!("GET events answered {status}")));
    }
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(ClientError::new("events stream ended inside the headers"));
        }
        if line == "\r\n" || line == "\n" {
            break;
        }
    }
    let mut out = Stream {
        first_event: None,
        journal: String::new(),
        journal_frame_bytes: 0,
        done: String::new(),
        done_frame_bytes: 0,
    };
    let mut event = String::new();
    let mut data = String::new();
    let mut frame_bytes = 0;
    loop {
        line.clear();
        let n = reader.read_line(&mut line)?;
        if n == 0 {
            return Err(ClientError::new("events stream ended before the done frame"));
        }
        frame_bytes += n;
        let text = line.strip_suffix('\n').unwrap_or(&line);
        if text.is_empty() {
            match event.as_str() {
                "journal" => {
                    out.first_event.get_or_insert_with(Instant::now);
                    out.journal.push_str(&data);
                    out.journal.push('\n');
                    out.journal_frame_bytes += frame_bytes;
                }
                "done" => {
                    out.done = std::mem::take(&mut data);
                    out.done_frame_bytes = frame_bytes;
                    return Ok(out);
                }
                _ => {}
            }
            event.clear();
            data.clear();
            frame_bytes = 0;
        } else if let Some(v) = text.strip_prefix("event: ") {
            event = v.to_string();
        } else if let Some(v) = text.strip_prefix("data: ") {
            if !data.is_empty() {
                data.push('\n');
            }
            data.push_str(v);
        }
    }
}

/// One client-side job and its phases.
#[derive(Debug, Clone)]
pub struct ClientJob {
    /// The end-to-end job.
    pub job: Job,
    /// Catalogue entry index.
    pub entry: usize,
    /// `POST /jobs` round trip, seconds.
    pub submit_s: f64,
    /// Bytes of the `done` frame.
    pub done_frame_bytes: usize,
    /// Bytes of all `journal` frames.
    pub journal_frame_bytes: usize,
    /// Refused with 429 or 503.
    pub rejected: bool,
    /// Spans were recorded for this job.
    pub traced: bool,
    /// Self time of the job's layer spans (everything below its `job`
    /// root), seconds; 0 when untraced.
    pub attributed_s: f64,
}

/// Submits one catalogue entry and streams it to `done`, checking the
/// done frame's digest and the journal against the reference.
pub fn job(addr: SocketAddr, tenant: &str, mix: &ServeMix, entry: usize) -> ClientJob {
    let e = &mix.entries[entry];
    let _root = trace::span("job");
    let t0 = Instant::now();
    let mut submit_s = 0.0;
    let result = (|| {
        let id = {
            let _span = trace::span("serve.submit");
            submit(addr, tenant, &e.text)?
        };
        submit_s = t0.elapsed().as_secs_f64();
        let out = {
            let _span = trace::span("serve.stream");
            stream(addr, id)?
        };
        let digest = out
            .done
            .split("\"digest\":\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .unwrap_or("");
        if !out.done.contains("\"status\":\"done\"") || digest != e.expected_digest {
            let head: String = out.done.chars().take(200).collect();
            return Err(ClientError::new(format!(
                "{}: done frame digest {digest:?} != expected {} ({head})",
                e.shape.name, e.expected_digest
            )));
        }
        if out.journal != e.expected_journal {
            return Err(ClientError::new(format!(
                "{}: streamed journal differs from the direct run",
                e.shape.name
            )));
        }
        Ok(out)
    })();
    let latency_s = t0.elapsed().as_secs_f64();
    match result {
        Ok(out) => ClientJob {
            job: Job {
                ok: true,
                latency_s,
                first_event_s: out.first_event.map(|t| (t - t0).as_secs_f64()),
                node_ticks: e.node_ticks,
                scenarios: 1,
                error: None,
            },
            entry,
            submit_s,
            done_frame_bytes: out.done_frame_bytes,
            journal_frame_bytes: out.journal_frame_bytes,
            rejected: false,
            traced: false,
            attributed_s: 0.0,
        },
        Err(err) => ClientJob {
            job: Job::failed(latency_s, err.message),
            entry,
            submit_s,
            done_frame_bytes: 0,
            journal_frame_bytes: 0,
            rejected: err.rejected,
            traced: false,
            attributed_s: 0.0,
        },
    }
}

/// A closed-loop drive's jobs and measurements.
pub struct Drive {
    /// Every job attempted, client by client.
    pub jobs: Vec<ClientJob>,
    /// Host seconds from the first submit to the last done frame.
    pub elapsed_s: f64,
    /// Peak live heap up to `ServeMix::peak_after` finished jobs (or the
    /// end, if fewer finished).
    pub peak_heap_bytes: f64,
    /// Spans of the traced jobs, per client thread.
    pub spans: Vec<Vec<trace::Span>>,
}

/// Drives `addr` with [`CLIENTS`] closed-loop clients taking jobs in the
/// seeded order until `seconds` have passed, each finishing the job it
/// holds. Client 0 takes `setup`'s in-window samples between its jobs.
/// With `alternate_tracing`, each client records spans for every other
/// job, so traced and untraced jobs share the same server state and
/// machine moments.
pub fn drive(
    mix: &ServeMix,
    addr: SocketAddr,
    seconds: f64,
    alternate_tracing: bool,
    mut setup: Option<&mut SetupSampler>,
) -> Drive {
    alloc::reset_peak();
    let next = AtomicUsize::new(0);
    let finished = AtomicUsize::new(0);
    let peak = Mutex::new(None);
    let jobs = Mutex::new(Vec::new());
    let spans = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let mut setup = setup.take();
            let (next, finished, peak, jobs, spans) = (&next, &finished, &peak, &jobs, &spans);
            scope.spawn(move || {
                let tenant = format!("client{client}");
                let mut mine = Vec::new();
                let mut kept = Vec::new();
                while mine.is_empty() || start.elapsed().as_secs_f64() < seconds {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let traced = alternate_tracing && mine.len() % 2 == 1;
                    trace::set_enabled(traced);
                    let mut j = job(addr, &tenant, mix, mix.order[i % mix.order.len()]);
                    trace::set_enabled(false);
                    if traced {
                        let spans = trace::take();
                        j.traced = true;
                        j.attributed_s = 1e-9 * trace::layer_self_ns(&spans);
                        trace::append(&mut kept, spans);
                    }
                    if finished.fetch_add(1, Ordering::Relaxed) + 1 == mix.peak_after {
                        *peak.lock().expect("peak lock") = Some(alloc::peak_bytes());
                    }
                    mine.push(j);
                    if let Some(setup) = setup.as_mut() {
                        setup.between_jobs();
                    }
                }
                spans.lock().expect("span lock").push(kept);
                jobs.lock().expect("job lock").extend(mine);
            });
        }
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let peak = peak.into_inner().expect("peak lock").unwrap_or_else(alloc::peak_bytes);
    Drive {
        jobs: jobs.into_inner().expect("job lock"),
        elapsed_s,
        peak_heap_bytes: peak as f64,
        spans: spans.into_inner().expect("span lock"),
    }
}

/// The untraced run. Set-up time is `Server::bind` plus the median of
/// `Simulation::try_new` summed over the catalogue.
pub fn run(mix: &ServeMix, seconds: f64) -> Result<Outcome, String> {
    let texts: Vec<String> = mix.entries.iter().map(|e| e.text.clone()).collect();
    let mut setup = SetupSampler::new(&texts, 8)?;
    let (addr, bind_s) = start_server()?;
    let d = drive(mix, addr, seconds, false, Some(&mut setup));
    Ok(Outcome {
        jobs: d.jobs.into_iter().map(|j| j.job).collect(),
        elapsed_s: d.elapsed_s,
        setup_s: bind_s + setup.finish(7)?,
        peak_heap_bytes: d.peak_heap_bytes,
    })
}

/// Runs one catalogue entry in-process exactly as the service's runner
/// does (queue sink journal), traced; returns its wall seconds and output.
fn direct_run(entry: &Entry) -> Result<(f64, RunOut), String> {
    let queue = JobQueue::new(QueueConfig::default());
    let id = queue.submit("direct", pipeline::parse(&entry.text)?).map_err(|e| e.to_string())?;
    let _claimed = queue.try_claim();
    let t = Instant::now();
    let out = {
        let _root = trace::span("job");
        pipeline::parse(&entry.text).and_then(|s| pipeline::run(s, Journal::Queue(queue, id)))?
    };
    let secs = t.elapsed().as_secs_f64();
    if out.digest != entry.expected_digest {
        return Err(format!("{}: direct run digest mismatch", entry.shape.name));
    }
    Ok((secs, out))
}

fn median_of(jobs: &[&ClientJob], f: impl Fn(&ClientJob) -> f64) -> f64 {
    median(&jobs.iter().map(|j| f(j)).collect::<Vec<_>>())
}

/// The traced run: one closed-loop drive in which each client traces
/// every other job, a traced in-process run of every catalogue entry, the
/// pool probe on the 64-node shape, and the layer probes.
pub fn traced(mix: &ServeMix, seconds: f64) -> Result<Traced, String> {
    let (addr, _) = start_server()?;
    let live_before = alloc::live_bytes();
    let d = drive(mix, addr, seconds * 2.0 / 3.0, true, None);
    let heap_per_job = alloc::live_bytes().saturating_sub(live_before) as f64 / d.jobs.len() as f64;

    // In-process runs of each entry: the simulation's share of a job.
    trace::take();
    trace::set_enabled(true);
    let mut direct_s = Vec::with_capacity(mix.entries.len());
    let mut heap_per_node = Vec::new();
    let mut json_bytes = Vec::new();
    for entry in &mix.entries {
        let (secs, out) = direct_run(entry)?;
        direct_s.push(secs);
        heap_per_node.push(out.setup_heap_bytes as f64 / entry.shape.nodes as f64);
        json_bytes.push(out.json_bytes as f64);
    }
    trace::set_enabled(false);
    let direct_spans = trace::take();

    let mut m = crate::zero_layers();
    pipeline_layers(&direct_spans, &mut m);
    m.insert("cluster.heap_bytes_per_node", median(&heap_per_node));
    m.insert("cluster.report_json_bytes", median(&json_bytes));
    let ok: Vec<&ClientJob> = d.jobs.iter().filter(|j| j.job.ok).collect();
    m.insert("serve.submit_ms", 1e3 * median_of(&ok, |j| j.submit_s));
    m.insert(
        "serve.first_event_ms",
        1e3 * median_of(&ok, |j| j.job.first_event_s.unwrap_or(j.job.latency_s)),
    );
    m.insert("serve.stream_ms", 1e3 * median_of(&ok, |j| j.job.latency_s - j.submit_s));
    m.insert("serve.done_frame_bytes", median_of(&ok, |j| j.done_frame_bytes as f64));
    m.insert("serve.journal_frame_bytes", median_of(&ok, |j| j.journal_frame_bytes as f64));
    m.insert("serve.rejected", d.jobs.iter().filter(|j| j.rejected).count() as f64);
    m.insert("serve.direct_run_ms", 1e3 * median_of(&ok, |j| direct_s[j.entry]));
    m.insert(
        "serve.overhead_ms",
        1e3 * median_of(&ok, |j| j.job.latency_s - j.submit_s - direct_s[j.entry]),
    );
    m.insert("serve.heap_bytes_per_retained_job", heap_per_job);

    let events = |e: &Entry| e.expected_journal.lines().count() as f64;
    m.insert("obs.journal_events", mean(&mix.entries.iter().map(events).collect::<Vec<_>>()));
    let frames: f64 = ok.iter().map(|j| events(&mix.entries[j.entry])).sum();
    let frame_bytes: f64 = ok.iter().map(|j| j.journal_frame_bytes as f64).sum();
    m.insert("obs.journal_bytes_per_event", if frames > 0.0 { frame_bytes / frames } else { 0.0 });

    // Reconciliation per catalogue entry, so the traced and untraced
    // halves compare like with like: a job is its submit and its stream,
    // and what is left is the client's own work between them.
    let (mut untraced, mut traced, mut attributed) = (0.0, 0.0, 0.0);
    for e in 0..mix.entries.len() {
        let of = |t: bool| -> Vec<&ClientJob> {
            ok.iter().copied().filter(|j| j.entry == e && j.traced == t).collect()
        };
        let (u, t) = (of(false), of(true));
        if u.is_empty() || t.is_empty() {
            continue;
        }
        let n = (u.len() + t.len()) as f64;
        untraced += n * mean(&u.iter().map(|j| j.job.latency_s).collect::<Vec<_>>());
        traced += n * mean(&t.iter().map(|j| j.job.latency_s).collect::<Vec<_>>());
        attributed += n * mean(&t.iter().map(|j| j.attributed_s).collect::<Vec<_>>());
    }
    if untraced > 0.0 {
        m.insert("trace.unattributed_pct", 100.0 * (untraced - attributed) / untraced);
        m.insert("trace.overhead_pct", 100.0 * (traced - untraced) / untraced);
    }

    let big = mix.entries.iter().max_by_key(|e| e.shape.nodes).expect("the catalogue is not empty");
    m.insert(
        "cluster.pool_overhead_us_per_tick",
        pool_overhead_us(&pipeline::parse(&big.text)?, 9, 100),
    );
    let mut probes = Probes::default();
    for entry in &mix.entries[..mix.shapes] {
        probes.probe(&pipeline::parse(&entry.text)?, entry.shape.scheme.family(), 50_000);
    }
    probes.fill(&mut m);

    let mut spans = d.spans;
    spans.push(direct_spans);
    Ok(Traced {
        metrics: m,
        spans,
        attempted: d.jobs.len() as u64,
        failed: d.jobs.iter().filter(|j| !j.job.ok).count() as u64,
        notes: probes.breakdown(),
    })
}
