//! Telemetry report: build a tracing-enabled platform, drive the paper's
//! workflows (Fig 4.1 creation, login, Fig 4.2 query, Fig 4.3 purchase,
//! auction), and print the per-stage latency table from the telemetry
//! registry. Optionally export the run as Chrome `trace_event` JSON
//! (loadable in Perfetto / `chrome://tracing`) and self-validate it.
//!
//! ```bash
//! cargo run --release -p bench --bin telemetry_report -- [--quick] [--chrome-out PATH]
//! ```

use abcrm_core::agents::msg::{BuyMode, ResponseBody};
use abcrm_core::profile::ConsumerId;
use abcrm_core::server::{listing, Platform};
use abcrm_core::workflow;
use agentsim::clock::SimDuration;
use ecp::merchandise::{ItemId, Money};

fn build_platform() -> Platform {
    Platform::builder(42)
        .telemetry(true)
        .marketplaces(vec![
            vec![
                listing(
                    1,
                    "Rust in Action",
                    "books",
                    "programming",
                    35,
                    &[("rust", 1.0)],
                ),
                listing(2, "The Go Book", "books", "programming", 30, &[("go", 1.0)]),
                listing(
                    3,
                    "Sourdough Basics",
                    "books",
                    "cooking",
                    20,
                    &[("bread", 1.0)],
                ),
            ],
            vec![
                listing(
                    11,
                    "Systems Programming",
                    "books",
                    "programming",
                    40,
                    &[("rust", 0.8)],
                ),
                listing(12, "Kind of Blue LP", "music", "jazz", 25, &[("jazz", 1.0)]),
            ],
        ])
        .build()
}

/// Validate the structure of an exported Chrome `trace_event` document:
/// object form, a `traceEvents` array of events each carrying
/// `name`/`ph`/`ts`/`pid`/`tid`, phases limited to complete (`X`) and
/// instant (`i`) events, and positive durations on complete events.
fn validate_chrome_trace(doc: &serde_json::Value) -> Result<usize, String> {
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .ok_or("missing traceEvents array")?;
    if events.is_empty() {
        return Err("traceEvents is empty".into());
    }
    for (i, ev) in events.iter().enumerate() {
        for key in ["name", "ph", "ts", "pid", "tid"] {
            if ev.get(key).is_none() {
                return Err(format!("event {i} missing {key}"));
            }
        }
        match ev["ph"].as_str() {
            Some("X") => {
                if ev.get("dur").and_then(|d| d.as_u64()).unwrap_or(0) == 0 {
                    return Err(format!("complete event {i} has zero duration"));
                }
            }
            Some("i") => {}
            other => return Err(format!("event {i} has unexpected phase {other:?}")),
        }
    }
    Ok(events.len())
}

fn print_latency_table(platform: &Platform) {
    let reg = platform.telemetry().registry();
    println!(
        "{:<28} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "stage", "count", "p50", "p90", "p99", "max"
    );
    for (name, h) in reg.histograms() {
        println!(
            "{:<28} {:>8} {:>10} {:>10} {:>10} {:>10}",
            name,
            h.count(),
            h.quantile(0.50),
            h.quantile(0.90),
            h.quantile(0.99),
            h.max()
        );
    }
    println!(
        "\ncounters: {} similar requests",
        reg.counter("pa.similar_requests")
    );
    if !reg.dead_letter_kinds().is_empty() {
        println!("dead letters by kind: {:?}", reg.dead_letter_kinds());
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let chrome_out = args
        .iter()
        .position(|a| a == "--chrome-out")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let mut platform = build_platform();
    workflow::validate(platform.world().trace(), workflow::FIG_CREATION)
        .expect("fig 4.1 creation trace");

    let alice = ConsumerId(1);
    platform.login(alice);
    platform.query(alice, &["rust"], 5);
    workflow::validate(platform.world().trace(), workflow::FIG_QUERY).expect("fig 4.2 query trace");
    let receipts = platform.buy(
        alice,
        ItemId(1),
        0,
        BuyMode::Negotiate {
            budget: Money::from_units(32),
            opening_fraction: 0.6,
            raise: 0.1,
            max_rounds: 20,
        },
    );
    workflow::validate(platform.world().trace(), workflow::FIG_TRANSACT)
        .expect("fig 4.3 buy trace");
    assert!(
        receipts
            .iter()
            .any(|r| matches!(r, ResponseBody::Receipt { .. })),
        "negotiated purchase must produce a receipt"
    );
    if !quick {
        platform.open_auction(
            1,
            ItemId(12),
            Money::from_units(10),
            Money::from_units(1),
            SimDuration::from_millis(50),
        );
        platform.auction(alice, ItemId(12), 1, Money::from_units(30));
    }
    platform.logout(alice);

    let telemetry = platform.telemetry();
    let roots = telemetry.roots().count();
    let spans = telemetry.spans().len();
    println!(
        "telemetry: {roots} request traces, {spans} spans, {} double closes\n",
        telemetry.double_closes()
    );

    // Every numbered workflow step lands as a Note event on some span,
    // so the whole figure narrative is recoverable from the trace alone.
    for prefix in ["fig4.1/", "fig4.2/", "fig4.3/"] {
        let steps = telemetry
            .spans()
            .iter()
            .flat_map(|s| s.events.iter())
            .filter(|e| e.label.starts_with(prefix))
            .count();
        println!("span events covering {prefix}: {steps} steps");
    }
    println!();
    print_latency_table(&platform);

    let doc = telemetry.chrome_trace_json();
    match validate_chrome_trace(&doc) {
        Ok(n) => println!("\nchrome trace: {n} events, schema OK"),
        Err(e) => {
            eprintln!("chrome trace INVALID: {e}");
            std::process::exit(1);
        }
    }
    if let Some(path) = chrome_out {
        let text = serde_json::to_string(&doc).expect("chrome trace serializes");
        std::fs::write(&path, text).expect("chrome trace written");
        println!("chrome trace written to {path} (load it in ui.perfetto.dev)");
    }
}
