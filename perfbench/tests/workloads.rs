//! Tiny-size runs of every workload: each metric the benchmark declares is
//! present, finite and carries its unit, and the correctness checks fail
//! jobs when an output is wrong or a submit is refused.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use unitherm_perfbench::outcome::{result_line, END_TO_END, PER_LAYER};
use unitherm_perfbench::{serve, sweep, Size};

const SEED: u64 = 7;

fn as_str(v: &serde_json::Value) -> Option<&str> {
    match v {
        serde_json::Value::Str(s) => Some(s),
        _ => None,
    }
}
const SECONDS: f64 = 0.3;

/// Renders the result line the way the binary does and checks every
/// metric of `table` in it: present, a finite number, with its unit.
fn check_line(table: &[(&'static str, &'static str)], values: &BTreeMap<&'static str, f64>) {
    let line = result_line(true, 1, 0, table, values);
    let parsed = serde_json::parse_value(&line).expect("the result line is JSON");
    let metrics = parsed.get("metrics").expect("metrics object");
    for (name, unit) in table {
        let m = metrics.get(name).unwrap_or_else(|| panic!("{name} missing"));
        let v = m.get("value").and_then(|v| v.as_f64()).unwrap_or_else(|| panic!("{name} value"));
        assert!(v.is_finite(), "{name} = {v}");
        let u = m.get("unit").and_then(as_str).unwrap_or_else(|| panic!("{name} unit"));
        assert_eq!(u, *unit, "{name}");
    }
}

fn check_end_to_end(values: &BTreeMap<&'static str, f64>) {
    check_line(&END_TO_END, values);
    for (name, _) in END_TO_END {
        assert!(values[name] > 0.0, "end-to-end metric {name} must never be 0");
    }
}

#[test]
fn sweep_reports_every_metric() {
    let sweep = sweep::prepare(SEED, Size::Tiny).expect("prepare");
    let o = sweep::run(&sweep, SECONDS).expect("run");
    assert_eq!(o.failed(), 0, "{:?}", o.jobs.iter().find(|j| !j.ok));
    check_end_to_end(&o.end_to_end());
    let t = sweep::traced(&sweep, SECONDS).expect("traced run");
    assert_eq!(t.failed, 0);
    check_line(&PER_LAYER, &t.metrics);
    assert!(t.metrics["obs.journal_events"] > 0.0);
    assert_eq!(t.metrics["obs.journal_bytes_per_event"].round(), 32.0, "bjl frames are 32 B");
}

#[test]
fn serve_reports_every_metric() {
    let mix = serve::prepare(SEED, Size::Tiny).expect("prepare");
    let o = serve::run(&mix, SECONDS).expect("run");
    assert_eq!(o.failed(), 0, "{:?}", o.jobs.iter().find(|j| !j.ok));
    check_end_to_end(&o.end_to_end());
    let t = serve::traced(&mix, SECONDS).expect("traced run");
    assert_eq!(t.failed, 0);
    check_line(&PER_LAYER, &t.metrics);
    assert!(t.metrics["serve.done_frame_bytes"] > 0.0);
}

#[test]
fn corrupted_expected_digest_fails_jobs() {
    let mut sweep = sweep::prepare(SEED, Size::Tiny).expect("prepare");
    sweep.entries[0].expected_replay = "fnv1a64:0000000000000000".to_string();
    let o = sweep::run(&sweep, SECONDS).expect("run");
    assert!(o.error_rate() > 0.0, "the corrupted replay digest must fail its jobs");

    let mut mix = serve::prepare(SEED, Size::Tiny).expect("prepare");
    mix.entries[0].expected_digest = "fnv1a64:0000000000000000".to_string();
    let o = serve::run(&mix, SECONDS).expect("run");
    assert!(o.error_rate() > 0.0, "the corrupted done-frame digest must fail its jobs");
}

/// A stand-in service that refuses every request with 429, the way
/// `unitherm-serve` answers a tenant over its quota.
fn refusing_server() -> (std::net::SocketAddr, Arc<AtomicBool>, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let handle = std::thread::spawn(move || {
        for conn in listener.incoming() {
            if stop2.load(Ordering::SeqCst) {
                return;
            }
            let Ok(conn) = conn else { continue };
            // Read the whole request first, so closing never resets a
            // connection with unread bytes.
            let mut reader = BufReader::new(conn.try_clone().expect("clone"));
            let mut length = 0usize;
            let mut line = String::new();
            while reader.read_line(&mut line).unwrap_or(0) > 0 && line != "\r\n" {
                if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                    length = v.trim().parse().unwrap_or(0);
                }
                line.clear();
            }
            let mut body = vec![0; length];
            let _ = reader.read_exact(&mut body);
            let reply = "HTTP/1.1 429 Too Many Requests\r\nRetry-After: 1\r\nContent-Length: 0\r\nConnection: close\r\n\r\n";
            let _ = (&conn).write_all(reply.as_bytes());
        }
    });
    (addr, stop, handle)
}

#[test]
fn refused_submit_fails_jobs() {
    let mix = serve::prepare(SEED, Size::Tiny).expect("prepare");
    let (addr, stop, handle) = refusing_server();
    let d = serve::drive(&mix, addr, 0.05, false, None);
    stop.store(true, Ordering::SeqCst);
    let _ = std::net::TcpStream::connect(addr);
    handle.join().expect("stand-in server");
    assert!(!d.jobs.is_empty());
    assert!(d.jobs.iter().all(|j| !j.job.ok && j.rejected), "a 429 is a failed, rejected job");
}

#[test]
fn benchmark_json_declares_exactly_these_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let v = serde_json::parse_value(&text).expect("BENCHMARK.json is JSON");
    for (key, table) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
        let Some(serde_json::Value::Seq(items)) = v.get(key) else { panic!("{key} list") };
        let declared: Vec<(String, String)> = items
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(as_str).expect("name and unit").to_string();
                (s("name"), s("unit"))
            })
            .collect();
        let ours: Vec<(String, String)> =
            table.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(declared, ours, "{key}");
    }
}
