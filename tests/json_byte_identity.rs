//! Byte-identity oracle for every JSON the workspace writes.
//!
//! Report digests, the bench determinism digest, JSONL journals and SSE
//! frames all come out of the one `serde_json` writer, so a change to that
//! writer cannot be caught by comparing it against itself. This file pins
//! its output against values recorded with the earlier writer, which built
//! a full `Value` tree before printing it:
//!
//! - compact report digests for three example runs (full recording,
//!   replayed faults, rack-coupled air);
//! - the exact pretty text of a scenario and of a chaos corpus
//!   (`tests/fixtures/json/`);
//! - the JSONL line and SSE frame of one record per [`Event`] variant, and
//!   every line of the committed example journal;
//! - formatting edge cases: omitted empty-summary bounds, non-finite
//!   floats, integral floats, `u64` above `i64::MAX`, string escapes, empty
//!   containers in pretty output, every derive shape.
//!
//! The expected values are data, not code: if one of these assertions
//! fails, the writer changed its bytes and the writer is what needs fixing.

use unitherm::cluster::chaos::{chaos_search, report_digest, ChaosConfig, OutcomePredicate};
use unitherm::cluster::{derive_fault_plan, ReplayOptions, Scenario, Simulation};
use unitherm::experiments::scenario_file;
use unitherm::metrics::Summary;
use unitherm::obs::{
    read_journal, ActuatorKind, CrossDirection, Event, EventRecord, InjectedFault, NullSink,
    SearchPhase, TripCause, WindowLevel,
};

fn repo_path(rel: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn fixture(name: &str) -> String {
    let path = repo_path(&format!("tests/fixtures/json/{name}"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn load(rel: &str, max_time_s: f64) -> Scenario {
    let mut s = scenario_file::load(repo_path(rel)).expect("shipped scenario loads");
    s.max_time_s = max_time_s;
    s.with_recording(true)
}

#[test]
fn report_digest_full_recording() {
    let report = Simulation::new(load("examples/scenarios/hybrid_burn.json", 60.0)).run();
    assert_eq!(report_digest(&report), "fnv1a64:60455942c76cbcca");
}

#[test]
fn report_digest_replayed_faults() {
    let base = load("examples/scenarios/replay/hybrid_burn_replay.json", 60.0);
    let file = std::fs::File::open(repo_path("examples/scenarios/replay/recorded_events.jsonl"))
        .expect("committed journal opens");
    let recorded = read_journal(std::io::BufReader::new(file)).expect("committed journal parses");
    let plan = derive_fault_plan(&recorded, &base, &ReplayOptions::default()).expect("derives");
    assert!(!plan.is_empty(), "the committed journal derives faults");
    let report = Simulation::new(plan.apply(base)).run();
    assert!(report.nodes.iter().any(|n| !n.faults_applied.is_empty()), "faults reached the nodes");
    assert_eq!(report_digest(&report), "fnv1a64:a9f2f96e62e4fd88");
}

#[test]
fn report_digest_rack_coupled() {
    let scenario = load("examples/scenarios/hot_rack_bt.json", 60.0);
    assert!(scenario.rack.is_some());
    let report = Simulation::new(scenario).run();
    assert_eq!(report_digest(&report), "fnv1a64:94d8ef27da9c2e12");
}

#[test]
fn scenario_pretty_text() {
    let scenario = scenario_file::load(repo_path("examples/scenarios/hot_rack_bt.json"))
        .expect("shipped scenario loads");
    assert_eq!(scenario_file::to_json(&scenario), fixture("hot_rack_bt.pretty.json"));
}

#[test]
fn chaos_corpus_pretty_text() {
    let mut base = scenario_file::load(repo_path("examples/scenarios/protected_burn.json"))
        .expect("shipped scenario loads");
    base.max_time_s = 30.0;
    let cfg = ChaosConfig {
        seed: 42,
        predicate: OutcomePredicate::FailsafeTrip,
        max_evaluations: 12,
        batch: 4,
        threads: 2,
        ..ChaosConfig::default()
    };
    let corpus = chaos_search(&base, &cfg, &mut NullSink).expect("search runs");
    let text = serde_json::to_string_pretty(&corpus).expect("corpus serializes");
    assert_eq!(text, fixture("chaos_corpus.pretty.json"));
}

#[test]
fn one_jsonl_line_per_event_variant() {
    let rec = |time_s: f64, node: u32, event: Event| EventRecord { time_s, node, event };
    let cases = [
        (
            rec(
                12.25,
                3,
                Event::ModeChange {
                    actuator: ActuatorKind::Fan,
                    from: 40,
                    to: 55,
                    window_level: WindowLevel::L1,
                },
            ),
            r#"{"time_s":12.25,"node":3,"event":{"ModeChange":{"actuator":"Fan","from":40,"to":55,"window_level":"L1"}}}"#,
        ),
        (
            rec(
                0.1,
                0,
                Event::ThresholdCross {
                    threshold_c: 51.0,
                    temp_c: 51.3000000000001,
                    direction: CrossDirection::Above,
                },
            ),
            r#"{"time_s":0.1,"node":0,"event":{"ThresholdCross":{"threshold_c":51.0,"temp_c":51.3000000000001,"direction":"Above"}}}"#,
        ),
        (
            rec(3.0, 1, Event::TdvfsEngage { from_mhz: 2400, to_mhz: 2200 }),
            r#"{"time_s":3.0,"node":1,"event":{"TdvfsEngage":{"from_mhz":2400,"to_mhz":2200}}}"#,
        ),
        (
            rec(1e17, 1, Event::TdvfsRelease { to_mhz: 2400 }),
            r#"{"time_s":100000000000000000,"node":1,"event":{"TdvfsRelease":{"to_mhz":2400}}}"#,
        ),
        (
            rec(-0.0, 7, Event::FailsafeTrip { cause: TripCause::StaleSensor }),
            r#"{"time_s":-0.0,"node":7,"event":{"FailsafeTrip":{"cause":"StaleSensor"}}}"#,
        ),
        (
            rec(2.5e-7, 2, Event::FailsafeRelease),
            r#"{"time_s":0.00000025,"node":2,"event":"FailsafeRelease"}"#,
        ),
        (
            rec(
                99.75,
                0,
                Event::PredictionSample { utilization: 1.0 / 3.0, predicted_delta_c: -5.8 },
            ),
            r#"{"time_s":99.75,"node":0,"event":{"PredictionSample":{"utilization":0.3333333333333333,"predicted_delta_c":-5.8}}}"#,
        ),
        (
            rec(
                45.0,
                4,
                Event::FaultInjected { kind: InjectedFault::AmbientStep, magnitude: f64::NAN },
            ),
            r#"{"time_s":45.0,"node":4,"event":{"FaultInjected":{"kind":"AmbientStep","magnitude":null}}}"#,
        ),
        (
            rec(
                600.0,
                0,
                Event::SearchProgress {
                    phase: SearchPhase::Bisect,
                    evaluated: 40,
                    counterexamples: 2,
                    best_cost: u64::MAX,
                },
            ),
            r#"{"time_s":600.0,"node":0,"event":{"SearchProgress":{"phase":"Bisect","evaluated":40,"counterexamples":2,"best_cost":18446744073709551615}}}"#,
        ),
    ];
    for (rec, expected) in cases {
        let line = serde_json::to_string(&rec).expect("records serialize");
        assert_eq!(line, expected, "{rec:?}");
        assert_eq!(
            unitherm::obs::sse_journal_frame(0, &rec),
            format!("id: 0\nevent: journal\ndata: {expected}\n\n")
        );
    }
}

#[test]
fn committed_journal_reserializes_byte_for_byte() {
    let text =
        std::fs::read_to_string(repo_path("examples/scenarios/replay/recorded_events.jsonl"))
            .expect("committed journal reads");
    for line in text.lines() {
        let rec: EventRecord = serde_json::from_str(line).expect("line parses");
        assert_eq!(serde_json::to_string(&rec).expect("serializes"), line);
    }
}

#[test]
fn empty_summary_omits_its_bounds() {
    let empty = Summary::default();
    assert_eq!(serde_json::to_string(&empty).unwrap(), r#"{"count":0,"mean":0.0,"std_dev":0.0}"#);
    assert_eq!(
        serde_json::to_string_pretty(&empty).unwrap(),
        "{\n  \"count\": 0,\n  \"mean\": 0.0,\n  \"std_dev\": 0.0\n}"
    );
    let one = Summary::of([42.0]);
    assert_eq!(
        serde_json::to_string(&one).unwrap(),
        r#"{"count":1,"mean":42.0,"min":42.0,"max":42.0,"std_dev":0.0}"#
    );
}

#[derive(serde::Serialize)]
struct Unit;

#[derive(serde::Serialize)]
struct Newtype(f64);

#[derive(serde::Serialize)]
struct Pair(u8, &'static str);

#[derive(serde::Serialize)]
struct Empty {}

#[derive(serde::Serialize)]
struct Generic<T> {
    inner: T,
    #[serde(skip)]
    #[allow(dead_code)]
    hidden: u32,
}

#[derive(serde::Serialize)]
enum Shape {
    Unit,
    Newtype(i32),
    Tuple(f64, bool),
    Struct {
        a: Option<u64>,
        #[serde(skip)]
        #[allow(dead_code)]
        b: u8,
        c: Vec<(i8, f32)>,
    },
}

#[derive(serde::Serialize)]
struct Edges {
    floats: Vec<f64>,
    ints: (i64, u64, i8),
    text: Vec<String>,
    none: Option<bool>,
    empty_seq: Vec<u32>,
    empty_map: Empty,
    unit: Unit,
    newtype: Newtype,
    pair: Pair,
    generic: Generic<Box<Generic<Vec<Vec<u8>>>>>,
    shapes: Vec<Shape>,
}

fn edges() -> Edges {
    Edges {
        floats: vec![
            0.0,
            -0.0,
            300.0,
            -2.0,
            1e15,
            9.999999999999998e15,
            1e16,
            1.5e300,
            0.1 + 0.2,
            1e-7,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::from(0.1f32),
        ],
        ints: (i64::MIN, u64::MAX, -1),
        text: vec![
            String::new(),
            "plain".to_string(),
            "quote \" backslash \\ slash /".to_string(),
            "\n\r\t\u{0}\u{1}\u{8}\u{c}\u{1f}\u{7f}".to_string(),
            "ünïcødé ✓ 🌡".to_string(),
        ],
        none: None,
        empty_seq: Vec::new(),
        empty_map: Empty {},
        unit: Unit,
        newtype: Newtype(2.5),
        pair: Pair(7, "x"),
        generic: Generic {
            inner: Box::new(Generic { inner: vec![vec![], vec![1, 2]], hidden: 9 }),
            hidden: 8,
        },
        shapes: vec![
            Shape::Unit,
            Shape::Newtype(-4),
            Shape::Tuple(1.0, false),
            Shape::Struct { a: Some(5), b: 1, c: vec![(-1, 0.5), (2, 3.0)] },
            Shape::Struct { a: None, b: 2, c: Vec::new() },
        ],
    }
}

#[test]
fn edge_cases_compact() {
    assert_eq!(serde_json::to_string(&edges()).unwrap(), fixture("edges.compact.json"));
}

#[test]
fn edge_cases_pretty() {
    assert_eq!(serde_json::to_string_pretty(&edges()).unwrap(), fixture("edges.pretty.json"));
}

#[test]
fn parsed_values_reserialize_unchanged() {
    let src = r#"{"a":[1,-2,18446744073709551615,2.5,1e21,true,null,"s\"\\\n\u0001"],"b":{},"c":[],"d":{"e":{"f":[[]]}}}"#;
    let value = serde_json::parse_value(src).expect("parses");
    assert_eq!(
        serde_json::to_string(&value).unwrap(),
        r#"{"a":[1,-2,18446744073709551615,2.5,1000000000000000000000,true,null,"s\"\\\n\u0001"],"b":{},"c":[],"d":{"e":{"f":[[]]}}}"#
    );
    assert_eq!(
        serde_json::to_string_pretty(&value).unwrap(),
        concat!(
            "{\n",
            "  \"a\": [\n",
            "    1,\n",
            "    -2,\n",
            "    18446744073709551615,\n",
            "    2.5,\n",
            "    1000000000000000000000,\n",
            "    true,\n",
            "    null,\n",
            "    \"s\\\"\\\\\\n\\u0001\"\n",
            "  ],\n",
            "  \"b\": {},\n",
            "  \"c\": [],\n",
            "  \"d\": {\n",
            "    \"e\": {\n",
            "      \"f\": [\n",
            "        []\n",
            "      ]\n",
            "    }\n",
            "  }\n",
            "}"
        )
    );
}
